"""`search.solve` against brute force, and `UnionFind`.

The oracle lists `itertools.product` of the domains and keeps each tuple
that every constraint accepts, so it gives the solutions, repeats
included, in lexicographic order of the domains; `solve` must return
that same list."""

import itertools
import random

import pytest

from msat.search import UnionFind, solve


def brute_force(domains, constraints):
    out = []
    for values in itertools.product(*domains):
        for fn, sources, target in constraints:
            got = fn(*(values[s] for s in sources))
            if (not got) if target is None else values[target] != got:
                break
        else:
            out.append(values)
    return out


def shifted(k):
    return lambda a, b: (a + b + k) % 5


def at_most(a, b):
    return a <= b


def random_problem(rng, repeated_at_targets):
    """Two to five variables over values 0..4, each domain up to four
    values in a random order; one domain repeats a value, and one
    problem in eight has an empty domain.  Constraints: arcs, several
    of them sharing one `fn`; self-loops; functional constraints with
    two sources; and checks.  Unless `repeated_at_targets`, no
    functional constraint targets the variable whose domain repeats a
    value."""
    n = rng.randint(2, 5)
    domains = [rng.sample(range(5), rng.randint(1, 4)) for _ in range(n)]
    rep = rng.randrange(n)
    domains[rep] = domains[rep][:3] + [rng.choice(domains[rep])]
    if rng.random() < 1 / 8:
        domains[rng.randrange(n)] = []
    tables = [{a: rng.randrange(5) for a in range(5)} for _ in range(2)]
    shared = [t.__getitem__ for t in tables]
    targets = [v for v in range(n) if repeated_at_targets or v != rep]
    constraints = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            t = rng.choice(targets)
            s = rng.choice([v for v in range(n) if v != t])
            constraints.append((rng.choice(shared), (s,), t))
        elif kind == 1:
            v = rng.randrange(n)
            constraints.append((rng.choice(shared), (v,), v))
        elif kind == 2:
            sources = (rng.randrange(n), rng.randrange(n))
            constraints.append((shifted(rng.randrange(5)), sources, rng.choice(targets)))
        else:
            constraints.append((at_most, (rng.randrange(n), rng.randrange(n)), None))
    return domains, constraints


def test_solve_matches_brute_force():
    kinds = set()
    for seed in range(400):
        domains, constraints = random_problem(random.Random(seed), False)
        assert solve(domains, constraints) == brute_force(domains, constraints), seed
        kinds.add(not all(domains))
    assert kinds == {False, True}


def test_repeated_value_at_a_functional_target_keeps_every_copy():
    """A functional constraint narrows its target to every copy of the
    forced value, on an arc (source fixed or not) and on a constraint
    with two sources alike; an arc revision whose target repeats a value
    it reaches ends.  Before, such an arc revision looped forever, and a
    constraint that fired once its sources were fixed kept one copy."""
    double = {0: 1, 1: 1, 2: 0}.__getitem__
    cases = [
        ([[0, 1, 2], [1, 0, 1]], [(double, (0,), 1)]),
        ([[2], [0, 1, 0]], [(double, (0,), 1)]),
        ([[0, 1], [2, 1], [1, 0, 1]], [(shifted(0), (0, 1), 2)]),
    ]
    for domains, constraints in cases:
        assert solve(domains, constraints) == brute_force(domains, constraints)
    for seed in range(200):
        domains, constraints = random_problem(random.Random(seed), True)
        assert solve(domains, constraints) == brute_force(domains, constraints), seed


def test_arcs_sharing_one_fn_read_one_table():
    calls = []

    def fn(a):
        calls.append(a)
        return a % 2

    domains = [[0, 1, 2, 3], [2, 3], [0, 1], [0, 1]]
    constraints = [(fn, (0,), 2), (fn, (1,), 3), (fn, (0,), 3)]
    got = solve(domains, constraints)
    assert sorted(calls) == [0, 1, 2, 3]
    assert got == brute_force(domains, constraints)


@pytest.mark.parametrize("domains", [[], [[]], [[1, 2], []]])
def test_empty_problems(domains):
    assert solve(domains, []) == brute_force(domains, [])


def test_union_find_unseen_key_is_its_own_root():
    uf = UnionFind()
    assert uf.find(("never", "seen")) == ("never", "seen")
    assert uf.parent == {}


def test_union_find_union_within_one_class_is_false():
    uf = UnionFind()
    assert uf.union("a", "b") and uf.union("b", "c")
    assert not uf.union("a", "c")
    assert not uf.union("c", "c")
    assert uf.find("a") == uf.find("b") == uf.find("c")
    assert uf.union("d", "a")
    assert uf.find("d") == uf.find("c")
