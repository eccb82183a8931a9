"""Jobs, shared inputs and known answers from outside msat.

A job is one call that returns one verdict.  Its answer is checked
against a known answer that the benchmark works out without msat: closed
formulas (word counts, Catalan numbers, gcd), theorem-level verdicts
(laws hold, faulted models fail) and recorded report digests.
"""

from __future__ import annotations

import itertools
import math


class Job:
    """`run()` computes the answer; `check(answer)` returns (ok, complete).

    `ok` is False when the answer is wrong; `complete` is False when the
    answer is right but weaker than the tool's contract allows (a generic
    `unknown` where the exact engine proves equality)."""

    __slots__ = ("key", "run", "check")

    def __init__(self, key: str, run, check):
        self.key = key
        self.run = run
        self.check = check


def expect(value):
    """Checker for an exact answer: complete whenever it is right."""

    def check(answer):
        ok = answer == value
        return ok, ok

    return check


def small_ssets(first_seed: int, count: int, max_top: int = 16):
    """`count` random simplicial sets (cap 3) from consecutive fuzz seeds,
    skipping those with more than `max_top` simplices in dimension 3.

    The cap states the workload's size: a codiscrete three-point nerve has
    81 top simplices, and the homotopy probe of its product then reduces a
    dense 588 x 4632 boundary matrix for over a minute."""
    from msat.fuzz import make_rng, random_sset

    out = []
    seed = first_seed
    while len(out) < count:
        S = random_sset(make_rng(seed), 3)
        if len(S.level(3)) <= max_top:
            out.append(S)
        seed += 1
    return out


# -- closed-form counts ------------------------------------------------------


def reduced_words(gens: int, max_len: int) -> int:
    """Reduced words of length <= max_len in the free group on `gens`
    generators: 1 + sum_l 2g(2g-1)^(l-1)."""
    if gens == 0:
        return 1
    return 1 + sum(2 * gens * (2 * gens - 1) ** (l - 1) for l in range(1, max_len + 1))


def monoid_words(gens: int, max_len: int) -> int:
    return sum(gens ** l for l in range(max_len + 1))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def edge_paths(edges, start, end, max_len: int) -> int:
    """Paths start -> end of at most max_len edges (the empty path when
    start == end), by brute force over edge sequences."""
    count = 1 if start == end else 0
    for length in range(1, max_len + 1):
        for seq in itertools.product(edges, repeat=length):
            if seq[0][0] != start or seq[-1][1] != end:
                continue
            if all(seq[i][1] == seq[i + 1][0] for i in range(length - 1)):
                count += 1
    return count


def hom_count(kind: str, source_sorts, target_sorts, bound: int):
    """|Hom(a, b)| at term bound `bound` for the doctrines with a closed
    form; None for the others.  Sorts are given by name."""
    src = list(source_sorts)
    total = 1
    for t in target_sorts:
        if kind == "trivial":
            slot = src.count(t)
        elif kind == "monoid":
            slot = monoid_words(src.count("m"), bound)
        elif kind == "group":
            slot = reduced_words(src.count("G"), bound)
        elif kind == "group-action":
            words = reduced_words(src.count("G"), bound)
            slot = words if t == "G" else src.count("X") * words
        elif kind == "ocat":
            edges = [tuple(s.split("_")[1:]) for s in src]
            _, x, y = t.split("_")
            slot = edge_paths(edges, x, y, bound)
        else:
            return None
        total *= slot
    return total


# -- group homomorphism counts -------------------------------------------------

S3_ORDERS = {1: 1, 2: 3, 3: 2}  # element order -> number of elements of S3


def group_hom_count(a: str, b: str) -> int:
    """|Hom(A, B)| for A, B in {Z1..Z6, S3}: gcd(m, n) between cyclic
    groups, elements of order dividing m for Zm -> S3, Hom(Z2, Zn) for
    S3 -> Zn (homs to an abelian group factor through S3^ab = Z2), and 10
    for S3 -> S3 (6 automorphisms, 3 onto order-2 subgroups, 1 trivial)."""
    if a == "S3" and b == "S3":
        return 10
    if a == "S3":
        return math.gcd(2, int(b[1:]))
    m = int(a[1:])
    if b == "S3":
        return sum(c for order, c in S3_ORDERS.items() if m % order == 0)
    return math.gcd(m, int(b[1:]))


# -- word problems in free monoids and groups ------------------------------


def word_value(term, group: bool):
    """Normal form of a nested-tuple term ("mul", x, y) / ("inv", x) /
    "e" / variable name: a flattened, and for groups freely reduced,
    tuple of (variable, exponent) letters."""
    if term == "e":
        return ()
    if isinstance(term, str):
        return ((term, 1),)
    if term[0] == "inv":
        return tuple((v, -e) for v, e in reversed(word_value(term[1], group)))
    out: list = []
    for letter in word_value(term[1], group) + word_value(term[2], group):
        if group and out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def term_text(term) -> str:
    if isinstance(term, str):
        return term
    return f"{term[0]}({','.join(term_text(a) for a in term[1:])})"
