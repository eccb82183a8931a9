"""Pinned output of the seeded fuzzers: the SHA-256 of the JSON of
fixed seeds of every `random_trivial_diagram` flavor and of
`product_simplicial_diagram` with `inflate` off and on.  A change to
what a seed generates shows here."""

import hashlib
import json

import pytest

from msat.dsl import diagram_to_data, simplicial_to_data
from msat.fuzz import make_rng, product_simplicial_diagram, random_sset, random_trivial_diagram


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


TRIVIAL_DIGESTS = {
    ("strict", 0): "4b5795d37e1fefbbc293cc802f60b6161ee23ac5b7b3f09e053e74261dda4441",
    ("strict", 1): "77cb5edb81f457943577c7d9eedc69b76de2572ed4222a558670a9df9aa0ae47",
    ("strict", 5): "275fddce0541dd63190d52d8dfcd371d5da793290599aff61389da4922de76ba",
    ("nonlocal", 0): "905b3df93bfffd94342826ad05a80ef0a0481616b3f1c18d029ddee4d8612b12",
    ("nonlocal", 4): "fe5d2cff765f7bc35006829441803f0225476f0f322a95ac41bd3e7a98479006",
    ("nonlocal", 5): "95cf45c83678646abb85e2885c5d6ac591a76498797b0795aaf8f9f5575c9862",
    ("any", 0): "905b3df93bfffd94342826ad05a80ef0a0481616b3f1c18d029ddee4d8612b12",
    ("any", 6): "a45b984f2beea5cfe4b5952f704de52b230d1e0706ad283277af357ed311e101",
    ("any", 7): "6fc2589fd8649b3e90eda670818961f79eacd696425fff9fe05dce10898f7cb0",
    ("broken", 0): "abcdc890108aa2a7d88e3de9cc4f04bdfe6088b552d8951614af0f1186ab0e63",
    ("broken", 1): "212d8114eb28827e484e5628c2604a394d194df1a5630f3cefa53cd6946cbe1b",
    ("broken", 2): "a63ad531c6718a2e239efbd00e4b5489f725ee191cc60358f1a7cf25347689d4",
}

SIMPLICIAL_DIGESTS = {
    (0, False): "487ececec72818a2cb77f7191b9186807a5bdd9120cb420f4866ce1510885429",
    (0, True): "aa2306bb51ff29841c9cb121a64f32908be80e29ba198d965663df50edd5f869",
    (1, False): "282d9143ea761e6de0eedfc8d0709afed2c313aeb4fe8195d68e25e081facb8e",
    (1, True): "67a400c28f47c3551770ee7d6054086af04de248c3ccc04b71812f638d54a94a",
    (4, False): "44decb22d707fc8dc19617d41f13334e36c8e78927925cde37885c8a9d69f05c",
    (4, True): "526187cd55d0249b3ca718fd63509b341a6938347ceaf38541c95ef5551600ac",
    (5, False): "7426a903e7cb10180f121ff62772d12e0a26feb8b92a57526fbed365aacc90e3",
    (5, True): "c3c0256bf5d1b05094ad3d679517444a41259744b571f8c88259ca5b9463c98f",
    (7, False): "ad924be9e5b04516a8c49dabd07c8434aae3ce1eed15674b02fc1941f972f6c3",
    (7, True): "c9adbaab72de905177e740c706745826850366d16edb7eff1156834632b8b384",
}


@pytest.mark.parametrize("flavor, seed", sorted(TRIVIAL_DIGESTS))
def test_random_trivial_diagram_is_pinned(trivial, flavor, seed):
    X = random_trivial_diagram(make_rng(seed), trivial, flavor)
    assert digest(diagram_to_data(X)) == TRIVIAL_DIGESTS[(flavor, seed)]


@pytest.mark.parametrize("seed, inflate", sorted(SIMPLICIAL_DIGESTS))
def test_product_simplicial_diagram_is_pinned(trivial, seed, inflate):
    SD = product_simplicial_diagram(trivial, random_sset(make_rng(seed)), inflate)
    assert digest(simplicial_to_data(SD)) == SIMPLICIAL_DIGESTS[(seed, inflate)]
