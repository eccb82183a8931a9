import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from msat.builtins import builtin_doctrine
from msat.errors import IndexOutOfRange, ObjectMismatch, SourceMismatch
from msat.signature import App, EqResult, Var, print_term
from msat.theory_cat import (
    TERMINAL,
    TheoryObject,
    compose,
    hom_enumerate,
    identity,
    make_morphism,
    morphism_to_json,
    objects_up_to,
    product,
    projection,
    tuple_,
    variable_morphisms,
)

from oracles import compose_by_substitution, count_reduced_strings, trivial_homset


def test_object_canonical_order(action):
    G, X = action.sort("G"), action.sort("X")
    assert TheoryObject.of(X, G) == TheoryObject.of(G, X)
    assert TheoryObject.of(X, G).key() == "G,X"


def test_object_equal_iff_multiset(action):
    G, X = action.sort("G"), action.sort("X")
    assert TheoryObject.of(G, G) != TheoryObject.of(G, X)
    perms = set(
        TheoryObject.of(*p) for p in itertools.permutations((G, X, G))
    )
    assert len(perms) == 1


def test_identity_terms(action):
    G, X = action.sort("G"), action.sort("X")
    obj = TheoryObject.of(G, X)
    ident = identity(obj)
    assert [print_term(t) for t in ident.terms] == ["v1", "v2"]
    assert identity(TERMINAL).terms == ()


def test_compose_squaring(monoid):
    m = monoid.sort("m")
    Tm, Tmm = TheoryObject.of(m), TheoryObject.of(m, m)
    v1 = Var("v1", m)
    d = make_morphism(monoid, Tm, Tmm, (v1, v1))
    mu = make_morphism(
        monoid, Tmm, Tm, (App(monoid.op("mul"), (Var("v1", m), Var("v2", m))),)
    )
    composite = compose(monoid, mu, d)
    assert print_term(composite.terms[0]) == "mul(v1,v1)"
    assert composite.source == Tm and composite.target == Tm


def test_compose_identity_laws(group):
    G = group.sort("G")
    Tgg, Tg = TheoryObject.of(G, G), TheoryObject.of(G)
    for f in hom_enumerate(Tgg, Tg, group, 2):
        assert compose(group, identity(Tg), f) == f
        assert compose(group, f, identity(Tgg)) == f


def test_compose_projection_after_diagonal(group):
    G = group.sort("G")
    Tg, Tgg = TheoryObject.of(G), TheoryObject.of(G, G)
    v1 = Var("v1", G)
    d = make_morphism(group, Tg, Tgg, (v1, v1))
    p1 = projection(Tgg, [1])
    assert compose(group, p1, d) == identity(Tg)


def test_compose_mismatch_raises(group):
    G = group.sort("G")
    f = identity(TheoryObject.of(G))
    g = identity(TheoryObject.of(G, G))
    with pytest.raises(ObjectMismatch):
        compose(group, g, f)


def test_projection_cases(action):
    G, X = action.sort("G"), action.sort("X")
    obj = TheoryObject.of(G, X)
    p = projection(obj, [1])
    assert p.target == TheoryObject.of(G) and print_term(p.terms[0]) == "v1"
    assert projection(obj, [1, 2]) == identity(obj)
    terminal = projection(obj, [])
    assert terminal.target == TERMINAL and terminal.terms == ()
    with pytest.raises(IndexOutOfRange):
        projection(obj, [3])


def test_product(action):
    G, X = action.sort("G"), action.sort("X")
    combined, pa, pb = product(TheoryObject.of(G), TheoryObject.of(X))
    assert combined == TheoryObject.of(G, X)
    same, qa, qb = product(TheoryObject.of(G), TheoryObject.of(G))
    assert same == TheoryObject.of(G, G)
    assert qa != qb
    unit, ua, ub = product(TheoryObject.of(G), TERMINAL)
    assert unit == TheoryObject.of(G)
    assert ua == identity(unit)


def test_tuple_of_projections_is_identity(action):
    G, X = action.sort("G"), action.sort("X")
    obj = TheoryObject.of(G, X)
    assert tuple_(action, [projection(obj, [1]), projection(obj, [2])]) == identity(obj)


def test_tuple_diagonal(monoid):
    m = monoid.sort("m")
    Tm = TheoryObject.of(m)
    p = identity(Tm)
    diag = tuple_(monoid, [p, p])
    assert [print_term(t) for t in diag.terms] == ["v1", "v1"]


def test_tuple_source_mismatch(group):
    G = group.sort("G")
    with pytest.raises(SourceMismatch):
        tuple_(group, [identity(TheoryObject.of(G)), identity(TheoryObject.of(G, G))])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tuple_universal_property(data, group):
    """Projections of a pairing recover the components, for random
    enumerated morphisms (compose-and-compare oracle)."""
    G = group.sort("G")
    Tg = TheoryObject.of(G)
    src = data.draw(st.sampled_from([TheoryObject.of(G), TheoryObject.of(G, G)]))
    ms = hom_enumerate(src, Tg, group, 2)
    f = data.draw(st.sampled_from(ms))
    g = data.draw(st.sampled_from(ms))
    paired = tuple_(group, [f, g])
    prod, pa, pb = product(Tg, Tg)
    assert paired.target == prod
    assert compose(group, pa, paired) == f
    assert compose(group, pb, paired) == g
    # uniqueness: the pairing is the only enumerated morphism with these
    # projections (exhaustive over the bounded hom set)
    matches = [
        h
        for h in hom_enumerate(src, prod, group, 2)
        if compose(group, pa, h) == f and compose(group, pb, h) == g
    ]
    if paired in matches:
        assert matches == [paired]


def test_hom_counts_trivial(trivial):
    el = trivial.sort("el")
    T2 = TheoryObject.of(el, el)
    ms = hom_enumerate(T2, T2, trivial, 2)
    assert len(ms) == len(trivial_homset(2, 2)) == 4


def test_hom_counts_ocat(ocat):
    from msat.builtins import ocat_context
    from msat.signature import enumerate_terms

    hxx = ocat.sort("h_x_x")
    T = TheoryObject.of(hxx)
    ms = hom_enumerate(T, T, ocat, 3)
    assert len(ms) == 4  # id, f, f^2, f^3
    # the doctrine's named generating edge spans the same paths
    ctx = ocat_context(ocat)
    assert len(enumerate_terms(ctx, hxx, ocat, 3)) == 4


def test_hom_counts_group(group):
    G = group.sort("G")
    ms = hom_enumerate(TheoryObject.of(G, G), TheoryObject.of(G), group, 2)
    assert len(ms) == count_reduced_strings(2, 2) == 17


def test_variable_morphisms_mixed_sorts(action):
    G, X = action.sort("G"), action.sort("X")
    obj = TheoryObject.of(G, X)
    ms = variable_morphisms(obj, obj)
    assert len(ms) == 1  # only the identity preserves the sorts


def test_compose_round_trip_no_drift(group):
    """compose(projection, tuple_) recovers components exactly, with no
    normalization drift, over the whole bounded hom set."""
    G = group.sort("G")
    Tg = TheoryObject.of(G)
    prod, pa, pb = product(Tg, Tg)
    for f in hom_enumerate(Tg, Tg, group, 2):
        for g in hom_enumerate(Tg, Tg, group, 2):
            h = tuple_(group, [f, g])
            assert compose(group, pa, h).terms == f.terms
            assert compose(group, pb, h).terms == g.terms


def test_morphism_json_stable(group):
    G = group.sort("G")
    ms = hom_enumerate(TheoryObject.of(G), TheoryObject.of(G), group, 2)
    blobs = [morphism_to_json(m) for m in ms]
    assert blobs == [morphism_to_json(m) for m in ms]
    assert blobs[0]["source"] == ["G"]


def test_objects_up_to(action):
    objs = objects_up_to(action, 2)
    assert len(objs) == 1 + 2 + 3  # terminal, two singletons, three pairs
    assert objs[0] == TERMINAL


def test_tuple_mixed_sorts_tracks_positions(action):
    """Pairing morphisms with interleaved sorts: the tracked positions
    recover each component through the right projections."""
    from msat.signature import App

    G, X = action.sort("G"), action.sort("X")
    src = TheoryObject.of(G, X)
    f1 = identity(src)                      # src -> <G,X>
    f2 = projection(src, [1])               # src -> <G>
    paired = tuple_(action, [f1, f2])
    assert paired.target == TheoryObject.of(G, G, X)
    # stable order: f1's G slot, then f2's G slot, then f1's X slot
    assert compose(action, projection(paired.target, [1, 3]), paired) == f1
    assert compose(action, projection(paired.target, [2]), paired) == f2


BUILTINS = [
    ("trivial", {}),
    ("monoid", {}),
    ("group", {}),
    ("group-action", {}),
    ("ring-module", {}),
    ("operad-nonsigma", {"level_cap": 3}),
    ("operad-symmetric", {"level_cap": 3}),
    ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "y"), ("g", "y", "x"))}),
]


def _composable_pairs(doctrine, budget=20000, seed=0):
    """(g, f) pairs over every triple of objects of size <= 2 with hom
    sets at bound 2: all pairs of a triple, or a seeded sample of them
    when there are more than the triple's share of the budget."""
    objs = objects_up_to(doctrine, 2)
    triples = list(itertools.product(objs, repeat=3))
    share = max(1, budget // len(triples))
    rng = random.Random(seed)
    homs = {}

    def hom(a, b):
        if (a, b) not in homs:
            homs[(a, b)] = hom_enumerate(a, b, doctrine, 2)
        return homs[(a, b)]

    for a, b, c in triples:
        fs, gs = hom(a, b), hom(b, c)
        n = len(fs) * len(gs)
        picks = range(n) if n <= share else sorted(rng.sample(range(n), share))
        for i in picks:
            yield gs[i % len(gs)], fs[i // len(gs)]


@pytest.mark.parametrize("name, kw", BUILTINS, ids=[name for name, _ in BUILTINS])
def test_compose_matches_substitution(name, kw):
    """Composition on values gives the normal forms of substitution on
    syntax, in slot order, and size/equal agree with those normal forms."""
    doctrine = builtin_doctrine(name, **kw)
    engine = doctrine.engine
    prev = None
    count = 0
    for g, f in _composable_pairs(doctrine):
        raw, ref = compose_by_substitution(doctrine, g, f)
        assert compose(doctrine, g, f).terms == ref
        for r, nf in zip(raw, ref):
            assert engine.size(r) == engine.size(nf)
            assert engine.equal(r, nf) is EqResult.EQUAL
            if prev is not None and prev.sort == nf.sort:
                same = EqResult.EQUAL if prev == nf else EqResult.DISTINCT
                assert engine.equal(r, prev) is same
            prev = nf
        count += 1
    assert count > 0
