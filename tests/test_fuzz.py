"""Pinned output of the seeded fuzzers: the SHA-256 of the JSON of
fixed seeds of every `random_trivial_diagram` flavor and of
`product_simplicial_diagram` with `inflate` off and on, and of group's
representable Hom((G,G), -).  A change to what a seed generates shows
here; the digests of the JSON as written, without sorted keys, also
show a change in the order of a map."""

import hashlib
import json
from collections import Counter

import pytest

import msat.diagram as diagram
from msat.diagram import representable_diagram
from msat.dsl import diagram_to_data, simplicial_to_data
from msat.fuzz import make_rng, product_simplicial_diagram, random_sset, random_trivial_diagram
from msat.theory_cat import TheoryObject


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def ordered_digest(data) -> str:
    """The digest of the JSON in insertion order, as `json.dump` writes
    a diagram file."""
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


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

ORDERED_TRIVIAL_DIGESTS = {
    ("strict", 0): "07fc516776b5122f88c7032b816e328d1b5120ac78ca2ca6cc29e7a67db0657e",
    ("strict", 1): "5ad4e7f48b6acfacd3e463326854b32f76b2ecaa621644ae01593f6464034882",
    ("strict", 5): "e24b62a84fd0198085b0074ccf86cd8559fd0a0608c0083d425e199bc06ca8d4",
    ("nonlocal", 0): "21cf975d234a79d9dee943215e238d2698b2fd54735d0f13b7d2feb854870acb",
    ("nonlocal", 4): "1f990ae2f35c071beb5dc6ceda57e18d6f92105b8840548bbad5247957e7ad6e",
    ("nonlocal", 5): "af8836bccb8a6d8a5cb8b58667704d848f5fbf1f4dbe961d5cde1a746d7e537b",
    ("any", 0): "21cf975d234a79d9dee943215e238d2698b2fd54735d0f13b7d2feb854870acb",
    ("any", 6): "dbd23c5cd95573dbae88f55aa0be01d731e61e6581ce3fc10d7a922417a5cd79",
    ("any", 7): "5daf7200f4bee32302a71c75babbf64aaef5afaa87b3f9e25f0a1a6cd7111220",
    ("broken", 0): "a6e88f3b3edd3af2cab771ecff7ff6081dcb020f2d5817d9f34f81316a2d7d6d",
    ("broken", 1): "085892e6bb5924dca03809fad9ca7fb2e9e23b75719b7053f5ccb09fc2d4e07b",
    ("broken", 2): "84f71d831723655b9155cb56de9254edbdd2c18fc55dd05c14b60950b6cf29dc",
}

# seed 40 has 6,561 simplices at the square object
ORDERED_SIMPLICIAL_DIGESTS = {
    (0, False): "c53b4de429c369c659abc7401374032a42a2b880fa6fd305f79684ffff41c177",
    (0, True): "d3f72b6a4862ca6874b16f6c56d892c13bde9f76f1462689a2efe796d5201cfe",
    (1, False): "bfbed8bc4cc89aaa3d822216a39c06bb51283c4aca9759b7e41ffb0be45e7d55",
    (1, True): "b4bed7cf3319f7ebf845e07e5317a3d24914936931435febc1acf9c87be04a39",
    (4, False): "8f22f54260c5a141c544e77b02d218dd1f706edf3a7d4ee70e3537b7a9f49b10",
    (4, True): "a293eab4ca837a62ac7740f3c2ff9daab3409ad5123a6f478f1f7c9433765b44",
    (5, False): "fc8a870f3cdb10a864a786deaaa8e66457f1b8d5870b60a65b9d4653c5f212e7",
    (5, True): "2f054d4186205878918729a7bf38c529a1ad19a6fde70029b1fb14b5a78b3588",
    (7, False): "d6dc0d69aacd8b0eed67b5d38104babfdba070675e019b2ee909a6bad288e4fe",
    (7, True): "e5d694e03ce1396f27e6238dcc498c07f5a7daaf566ae0229cfbe807b4684d1a",
    (40, False): "8cf29a426549ea0c6a77d93ac0aa38346e8619df99aaf3a567f79b04ce559b25",
}

# diagram_to_data(representable_diagram(group, (G,G), 2, 2))
ORDERED_REPRESENTABLE_DIGEST = "0813dcf50fc0eca950824bcd5c3e1fd27912785d886db0654391cd8a9a3aec8d"


@pytest.mark.parametrize("flavor, seed", sorted(TRIVIAL_DIGESTS))
def test_random_trivial_diagram_is_pinned(trivial, flavor, seed):
    X = random_trivial_diagram(make_rng(seed), trivial, flavor)
    assert digest(diagram_to_data(X)) == TRIVIAL_DIGESTS[(flavor, seed)]


@pytest.mark.parametrize("seed, inflate", sorted(SIMPLICIAL_DIGESTS))
def test_product_simplicial_diagram_is_pinned(trivial, seed, inflate):
    SD = product_simplicial_diagram(trivial, random_sset(make_rng(seed)), inflate)
    assert digest(simplicial_to_data(SD)) == SIMPLICIAL_DIGESTS[(seed, inflate)]


@pytest.mark.parametrize("flavor, seed", sorted(ORDERED_TRIVIAL_DIGESTS))
def test_random_trivial_diagram_order_is_pinned(trivial, flavor, seed):
    X = random_trivial_diagram(make_rng(seed), trivial, flavor)
    assert ordered_digest(diagram_to_data(X)) == ORDERED_TRIVIAL_DIGESTS[(flavor, seed)]


@pytest.mark.parametrize("seed, inflate", sorted(ORDERED_SIMPLICIAL_DIGESTS))
def test_product_simplicial_diagram_order_is_pinned(trivial, seed, inflate):
    SD = product_simplicial_diagram(trivial, random_sset(make_rng(seed)), inflate)
    assert ordered_digest(simplicial_to_data(SD)) == ORDERED_SIMPLICIAL_DIGESTS[(seed, inflate)]


def test_representable_diagram_order_is_pinned(group):
    G = group.sorts[0]
    X = representable_diagram(group, TheoryObject.of(G, G), 2, 2)
    assert ordered_digest(diagram_to_data(X)) == ORDERED_REPRESENTABLE_DIGEST


def test_simplicial_to_data_prints_each_element_once(trivial, monkeypatch):
    """One memo serves the whole report: every distinct element, and
    every distinct part of a tuple element, reaches the uncached
    printer `diagram._spell` once, however many faces, degeneracies
    and tables name it."""
    SD = product_simplicial_diagram(trivial, random_sset(make_rng(40)))
    spelled = Counter()
    spell = diagram._spell

    def counting(e, printed):
        spelled[(e.__class__, e)] += 1
        return spell(e, printed)

    monkeypatch.setattr(diagram, "_spell", counting)
    data = simplicial_to_data(SD)
    assert ordered_digest(data) == ORDERED_SIMPLICIAL_DIGESTS[(40, False)]
    assert max(spelled.values()) == 1
    elements = {(x.__class__, x) for L in SD.levels for obj in L.objects()
                for x in L.value(obj) if x.__class__ is not str}
    assert elements <= set(spelled)
