import gc
import hashlib
import itertools
import json
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from msat.builtins import builtin_doctrine
from msat.errors import IndexOutOfRange, MissingAssignment, ObjectMismatch, SourceMismatch
from msat.signature import (
    App,
    EqResult,
    OpSymbol,
    Sort,
    Var,
    enumerate_terms,
    print_term,
    substitute,
    term_vars,
)
from msat.theory_cat import (
    TERMINAL,
    TheoryMorphism,
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

from conftest import BUILTIN_ARGS, new_doctrine
from oracles import (
    compose_by_substitution,
    count_reduced_strings,
    reference_value_with_env,
    trivial_homset,
)


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


def test_constructor_takes_values_not_terms(group, action):
    """Without an engine the constructor takes variables only: a term
    with an operation is not an exact engine's value, so it is refused
    rather than made into a morphism that no composite equals."""
    G = group.sort("G")
    Tg, Tgg = TheoryObject.of(G), TheoryObject.of(G, G)
    v1, v2 = Tgg.context().vars
    assert TheoryMorphism(Tgg, Tgg, [v2, v1]) is TheoryMorphism(Tgg, Tgg, (v2, v1))
    assert TheoryMorphism(Tgg, Tg, [v1]) is projection(Tgg, [1])
    term = App(group.op("mul"), (v1, v2))
    with pytest.raises(ObjectMismatch, match="make_morphism"):
        TheoryMorphism(Tgg, Tg, (term,))
    with pytest.raises(ObjectMismatch, match="size 1"):
        TheoryMorphism(Tgg, Tg, (v1, v2))
    f = make_morphism(group, Tgg, Tg, (term,))
    assert f.terms == (term,) and f in hom_enumerate(Tgg, Tg, group, 2)
    aG, aX = action.sort("G"), action.sort("X")
    with pytest.raises(ObjectMismatch, match="slot wants X"):
        TheoryMorphism(TheoryObject.of(aG), TheoryObject.of(aX), (Var("v1", aG),))


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
    # a shared `printed` memo prints the same JSON
    GG = TheoryObject.of(G, G)
    ms = hom_enumerate(GG, GG, group, 2) + hom_enumerate(GG, TheoryObject.of(G), group, 2)
    printed = {}
    for m in ms:
        assert morphism_to_json(m, printed)["terms"] == [print_term(t) for t in m.terms]


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


def _bind_cases(doctrine, per_sort=40, per_term=3, seed=0):
    """(term, sort, assignment) triples: a seeded sample of the terms
    enumerated at bound 2 over the context of each object of size <= 2,
    each under assignments drawn from the same enumeration."""
    rng = random.Random(seed)
    for obj in objects_up_to(doctrine, 2):
        ctx = obj.context()
        terms = {s: enumerate_terms(ctx, s, doctrine, 2) for s in doctrine.sorts}
        if any(not terms[v.sort] for v in ctx.vars):
            continue
        for s in doctrine.sorts:
            pool = terms[s]
            for t in rng.sample(pool, min(per_sort, len(pool))):
                for _ in range(per_term):
                    yield t, s, {v.name: rng.choice(terms[v.sort]) for v in ctx.vars}


@pytest.mark.parametrize("name, kw", BUILTINS, ids=[name for name, _ in BUILTINS])
def test_bind_matches_substitution(name, kw):
    """Binding a term's value to the values of an assignment is the
    value of the substituted term: it renders to the normal form of the
    substitution on syntax and equals the value that walking the term
    with the assigned values gives."""
    doctrine = builtin_doctrine(name, **kw)
    engine = doctrine.engine
    count = 0
    for t, s, asg in _bind_cases(doctrine):
        env = {n: engine.value(a) for n, a in asg.items()}
        bound = engine.bind(engine.value(t), env, s)
        assert bound == reference_value_with_env(engine, t, env)
        assert engine.render(bound, s) is engine.normalize(substitute(t, asg))
        count += 1
    assert count > 0


@pytest.mark.parametrize("name, kw", BUILTINS, ids=[name for name, _ in BUILTINS])
def test_engine_substitute_names_unassigned_variable(name, kw):
    doctrine = builtin_doctrine(name, **kw)
    obj = next(o for o in objects_up_to(doctrine, 2) if o.size == 2)
    ctx = obj.context()
    v1, v2 = ctx.vars
    t = [t for t in enumerate_terms(ctx, v2.sort, doctrine, 2) if "v2" in term_vars(t)][-1]
    with pytest.raises(MissingAssignment, match="'v2'"):
        doctrine.engine.substitute((t,), {"v1": v1})


def test_compose_evaluates_outer_terms_once(group, monkeypatch):
    """Composing one g with 50 different f's takes the value of no term:
    g holds its values and binds them per f."""
    engine = group.engine
    GG = TheoryObject.of(group.sort("G"), group.sort("G"))
    homs = hom_enumerate(GG, GG, group, 2)
    g = next(m for m in reversed(homs) if all(isinstance(t, App) for t in m.terms))
    calls = {}
    depth = 0
    real_value = engine.value

    def counting_value(term):
        nonlocal depth
        if not depth:
            calls[term] = calls.get(term, 0) + 1
        depth += 1
        try:
            return real_value(term)
        finally:
            depth -= 1

    fs = [f for f in homs if f is not g][:50]
    assert len(fs) == 50
    expected = [compose_by_substitution(group, g, f)[1] for f in fs]
    monkeypatch.setattr(engine, "value", counting_value)
    assert [compose(group, g, f).terms for f in fs] == expected
    assert calls == {}


# -- interning -----------------------------------------------------------


def _same_objects(xs, ys):
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_equal_constructions_are_identical(group):
    from msat.dsl import parse_theory, print_theory

    again = builtin_doctrine("group")
    parsed = parse_theory(print_theory(group))
    G = group.sort("G")
    for other in (again, parsed):
        assert _same_objects(group.sorts, other.sorts)
        assert _same_objects(group.ops, other.ops)
    assert Sort("G") is G and Sort("G", level=1) is not G
    assert OpSymbol("inv", [G], G) is group.op("inv")
    assert Var("a", G) is Var("a", G) and Var("a", G) is not Var("b", G)
    mul, a, b = group.op("mul"), Var("a", G), Var("b", G)
    assert App(mul, (a, b)) is App(mul, [a, b]) and App(mul, (a, b)) is not App(mul, (b, a))
    assert TheoryObject.of(G, G) is TheoryObject((G, G))
    src, tgt = TheoryObject.of(G, G), TheoryObject.of(G)
    first = hom_enumerate(src, tgt, group, 2)
    assert len(first) == 17 and _same_objects(first, hom_enumerate(src, tgt, again, 2))
    for cls in (Sort, OpSymbol, Var, App, TheoryObject, TheoryMorphism):
        assert cls.__hash__ is object.__hash__ and "_hash" not in cls.__slots__


def test_equal_composites_are_identical(group):
    G = group.sort("G")
    objs = [TheoryObject.of(G), TheoryObject.of(G, G)]
    homs = {(a, b): hom_enumerate(a, b, group, 1) for a in objs for b in objs}
    by_fields = {}
    pairs = 0
    for a, b, c in itertools.product(objs, repeat=3):
        for f in homs[(a, b)]:
            for g in homs[(b, c)]:
                h = compose(group, g, f)
                first = by_fields.setdefault((h.source, h.target, h.terms), h)
                assert first is h
                pairs += 1
    # many (g, f) pairs land on few composites
    assert len(by_fields) < pairs


def test_intern_tables_do_not_pin_memory(action):
    G, X = action.sort("G"), action.sort("X")
    homs = hom_enumerate(TheoryObject.of(G, G, X), TheoryObject.of(G, X), action, 1)
    table = TheoryMorphism._table
    refs = [weakref.ref(m) for m in homs]
    size = len(table)
    del homs
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(table) <= size - len(refs)
    # terms of sorts no other test uses, so no engine cache elsewhere
    # holds them; the doctrine's equations hold its identity constants
    paths = builtin_doctrine("ocat", objects=("pin_x", "pin_y"))
    hxy, hyy = paths.sort("h_pin_x_pin_y"), paths.sort("h_pin_y_pin_y")
    homs = hom_enumerate(TheoryObject.of(hxy, hyy), TheoryObject.of(hxy), paths, 3)
    terms = {t for m in homs for t in m.terms if isinstance(t, App)}
    refs = [weakref.ref(t) for t in terms]
    size = len(App._table)
    del paths, homs, terms
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert len(App._table) <= size - len(refs)


# -- morphisms are values ------------------------------------------------

# per built-in doctrine and term bound: the count and sha256 of the
# "a -> b : terms" lines of every hom set between objects of size <= 2,
# recorded while morphisms still stored their normalized terms
HOM_DIGESTS = json.loads((Path(__file__).parent / "data" / "hom_term_digests.json").read_text())


@pytest.mark.parametrize("name", list(BUILTIN_ARGS))
def test_values_identify_morphisms(name):
    """A morphism's identity is its values: distinct morphisms are
    distinct normal forms, every hom set renders the recorded term
    tuples in the recorded order, and composing with an identity selects
    the very same morphism."""
    d = new_doctrine(name)
    objs = objects_up_to(d, 2)
    for bound in (2, 3):
        digest, count = hashlib.sha256(), 0
        for a, b in itertools.product(objs, repeat=2):
            homs = hom_enumerate(a, b, d, bound)
            terms = [m.terms for m in homs]
            assert len(set(homs)) == len(set(terms)) == len(homs)
            ida, idb = identity(a), identity(b)
            for f, ts in zip(homs, terms):
                assert compose(d, idb, f) is f and compose(d, f, ida) is f
                digest.update(f"{a} -> {b} : {';'.join(print_term(t) for t in ts)}\n".encode())
            count += len(homs)
        want = HOM_DIGESTS[f"{name}/{bound}"]
        assert (count, digest.hexdigest()) == (want["count"], want["sha256"]), bound


@pytest.mark.parametrize("name, kw", BUILTINS, ids=[name for name, _ in BUILTINS])
def test_engines_hold_no_growing_state(name, kw):
    """An engine keeps nothing between calls: after composing every pair
    of a bound-2 endomorphism hom set, and checking the monad laws of a
    model, no attribute of the engine has grown."""
    from msat.catalog import models_for
    from msat.models import check_monad_laws

    d = builtin_doctrine(name, **kw)
    engine = d.engine

    def sizes():
        return {k: len(v) if hasattr(v, "__len__") else v for k, v in vars(engine).items()}

    before = sizes()
    for s in d.sorts:
        obj = TheoryObject.of(s)
        homs = hom_enumerate(obj, obj, d, 2)
        for g, f in itertools.product(homs, repeat=2):
            compose(d, g, f)
    models = models_for(d, 2)
    if models:
        check_monad_laws(models[0], 2)
    assert sizes() == before
