import pytest
from hypothesis import given, settings, strategies as st

from msat.builtins import builtin_doctrine
from msat.catalog import models_for
from msat.errors import SortMismatch, UnboundVariable, UnknownSymbol, UnsupportedDoctrine
from msat.models import evaluate
from msat.signature import (
    App,
    Context,
    EqResult,
    OpSymbol,
    Var,
    enumerate_raw_terms,
    enumerate_terms,
    normalize,
    print_term,
    substitute,
    terms_equal,
    typecheck,
)
from msat.theory_cat import objects_up_to

from oracles import (
    catalan,
    count_monoid_words,
    count_reduced_strings,
    reference_value_with_env,
)


def gctx(group, names=("a", "b")):
    G = group.sort("G")
    return Context.of(*((n, G) for n in names))


class TestTypecheck:
    def test_group_term(self, group):
        G = group.sort("G")
        ctx = gctx(group, ("a",))
        a = Var("a", G)
        t = App(group.op("mul"), (App(group.op("inv"), (a,)), a))
        assert typecheck(t, ctx, group) == G

    def test_action_term(self, action):
        G, X = action.sort("G"), action.sort("X")
        ctx = Context.of(("a", G), ("s", X))
        t = App(action.op("act"), (Var("a", G), Var("s", X)))
        assert typecheck(t, ctx, action) == X

    def test_action_swapped_args_rejected(self, action):
        G, X = action.sort("G"), action.sort("X")
        ctx = Context.of(("a", G), ("s", X))
        bad = App(action.op("act"), (Var("s", X), Var("a", G)))
        with pytest.raises(SortMismatch):
            typecheck(bad, ctx, action)

    def test_unbound_variable(self, group):
        with pytest.raises(UnboundVariable):
            typecheck(Var("zz", group.sort("G")), Context.of(), group)


class TestSubstitute:
    def test_squaring(self, monoid):
        m = monoid.sort("m")
        mul = monoid.op("mul")
        t = App(mul, (Var("v1", m), Var("v2", m)))
        x = Var("x", m)
        assert substitute(t, {"v1": x, "v2": x}) == App(mul, (x, x))

    def test_nested(self, group):
        G = group.sort("G")
        inv, mul = group.op("inv"), group.op("mul")
        t = App(inv, (Var("v1", G),))
        ab = App(mul, (Var("a", G), Var("b", G)))
        assert substitute(t, {"v1": ab}) == App(inv, (ab,))

    def test_action(self, action):
        G, X = action.sort("G"), action.sort("X")
        act, mul = action.op("act"), action.op("mul")
        t = App(act, (Var("v1", G), Var("v2", X)))
        ab = App(mul, (Var("a", G), Var("b", G)))
        s = Var("s", X)
        assert substitute(t, {"v1": ab, "v2": s}) == App(act, (ab, s))


class TestNormalize:
    def test_group_cancellation(self, group):
        G = group.sort("G")
        a = Var("a", G)
        t = App(group.op("mul"), (a, App(group.op("inv"), (a,))))
        assert normalize(t, group) == App(group.op("e"))

    def test_action_reassociation(self, action):
        G, X = action.sort("G"), action.sort("X")
        act, mul = action.op("act"), action.op("mul")
        a, b, s = Var("a", G), Var("b", G), Var("s", X)
        t = App(act, (App(mul, (a, b)), s))
        assert normalize(t, action) == App(act, (a, App(act, (b, s))))

    def test_operad_left_right_distinct(self, operad3):
        m = Var("m", operad3.sort("P2"))
        unit = App(operad3.op("unit"))
        g = operad3.op("g2__2_1")
        g2 = operad3.op("g2__1_2")
        left = App(g, (m, m, unit))
        right = App(g2, (m, unit, m))
        assert normalize(left, operad3) != normalize(right, operad3)
        ts = enumerate_terms(Context((m,)), operad3.sort("P3"), operad3, 5)
        assert len(ts) == 2  # oracle: planar binary trees with 3 leaves

    def test_generic_engine_has_no_normal_form(self):
        from msat.dsl import parse_theory

        doc = parse_theory("theory t sorts a op f : a -> a end")
        with pytest.raises(UnsupportedDoctrine):
            normalize(Var("x", doc.sort("a")), doc)


class TestTermsEqual:
    def test_associativity(self, group):
        G = group.sort("G")
        mul = group.op("mul")
        a, b, c = Var("a", G), Var("b", G), Var("c", G)
        t1 = App(mul, (App(mul, (a, b)), c))
        t2 = App(mul, (a, App(mul, (b, c))))
        assert terms_equal(t1, t2, group) is EqResult.EQUAL

    def test_no_commutativity(self, monoid):
        m = monoid.sort("m")
        mul = monoid.op("mul")
        x, y = Var("x", m), Var("y", m)
        assert terms_equal(App(mul, (x, y)), App(mul, (y, x)), monoid) is EqResult.DISTINCT

    def test_generic_beyond_budget_unknown(self):
        from msat.dsl import parse_theory

        doc = parse_theory(
            "theory t sorts a op f : a -> a "
            "eq (x:a) f(f(f(f(f(f(x)))))) = x end"
        )
        a = doc.sort("a")
        f = doc.op("f")
        x = Var("x", a)
        deep = x
        for _ in range(6):
            deep = App(f, (deep,))
        assert terms_equal(deep, x, doc, budget=0) is EqResult.UNKNOWN
        # within budget the instance is found
        assert terms_equal(deep, x, doc, budget=1) is EqResult.EQUAL


class TestEnumerate:
    def test_free_group_counts(self, group):
        ctx = gctx(group)
        G = group.sort("G")
        assert len(enumerate_terms(ctx, G, group, 2)) == count_reduced_strings(2, 2) == 17
        assert len(enumerate_terms(ctx, G, group, 3)) == count_reduced_strings(2, 3) == 53

    def test_monoid_counts(self, monoid):
        m = monoid.sort("m")
        ctx = Context.of(("a", m), ("b", m))
        assert len(enumerate_terms(ctx, m, monoid, 2)) == count_monoid_words(2, 2) == 7

    def test_action_orbit(self, action):
        G, X = action.sort("G"), action.sort("X")
        ctx = Context.of(("a", G), ("s", X))
        ts = enumerate_terms(ctx, X, action, 2)
        assert len(ts) == 5

    def test_operad_catalan(self):
        doc = builtin_doctrine("operad-nonsigma", level_cap=5)
        m = Var("m", doc.sort("P2"))
        ctx = Context((m,))
        for k in range(2, 6):
            got = len(enumerate_terms(ctx, doc.sort(f"P{k}"), doc, k))
            assert got == catalan(k - 1)

    def test_no_duplicates_and_deterministic(self, group):
        ctx = gctx(group)
        G = group.sort("G")
        ts = enumerate_terms(ctx, G, group, 2)
        assert len(set(map(print_term, ts))) == len(ts)
        assert ts == enumerate_terms(ctx, G, group, 2)


class TestBuiltinDoctrines:
    def test_group_action_shape(self, action):
        assert len(action.sorts) == 2
        assert len(action.ops) == 4
        assert len(action.equations) == 7

    def test_ocat_sorted_by_pairs(self, ocat):
        assert len(ocat.sorts) == 4

    def test_operad_level_cap(self, operad3):
        assert {s.level for s in operad3.sorts} == {0, 1, 2, 3}
        assert all(op.codomain.level <= 3 for op in operad3.ops if op.name.startswith("g"))

    def test_invalid_parameters(self):
        from msat.errors import InvalidParameter

        with pytest.raises(InvalidParameter):
            builtin_doctrine("operad-nonsigma", level_cap=-1)
        with pytest.raises(InvalidParameter):
            builtin_doctrine("ocat", objects=())


# -- property tests --------------------------------------------------------


def _term_strategy(doctrine, context, sort, depth):
    ops = [op for op in doctrine.ops if op.codomain == sort]
    leaves = [st.just(v) for v in context.vars if v.sort == sort]
    consts = [st.just(App(op)) for op in ops if op.arity == 0]
    base = st.one_of(*(leaves + consts)) if (leaves or consts) else None

    def extend(children):
        branches = []
        for op in ops:
            if op.arity == 0:
                continue
            subs = [
                _term_strategy(doctrine, context, s, depth - 1) for s in op.domain
            ]
            if any(s is None for s in subs):
                continue
            branches.append(st.tuples(*subs).map(lambda args, op=op: App(op, args)))
        return branches

    if depth <= 0 or not ops:
        return base
    branches = extend(None)
    options = ([base] if base is not None else []) + branches
    if not options:
        return base
    return st.one_of(*options)


_STRATEGY_CACHE = {}


def _cached_strategy(name):
    if name not in _STRATEGY_CACHE:
        doc, ctx = _doctrine_context(name)
        depth = 2 if name in ("operad", "ring-module") else 3
        _STRATEGY_CACHE[name] = (doc, _term_strategy(doc, ctx, ctx.vars[0].sort, depth))
    return _STRATEGY_CACHE[name]


def _doctrine_context(name):
    doc = builtin_doctrine(name) if name != "operad" else builtin_doctrine(
        "operad-nonsigma", level_cap=3
    )
    if name == "group":
        return doc, gctx(doc)
    if name == "monoid":
        m = doc.sort("m")
        return doc, Context.of(("a", m), ("b", m))
    if name == "group-action":
        return doc, Context.of(("a", doc.sort("G")), ("s", doc.sort("X")))
    if name == "ring-module":
        return doc, Context.of(("x", doc.sort("R")), ("u", doc.sort("M")))
    if name == "operad":
        return doc, Context((Var("m", doc.sort("P2")),))
    raise ValueError(name)


@pytest.mark.parametrize("name", ["group", "monoid", "group-action", "ring-module", "operad"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normalize_idempotent(name, data):
    doc, strat = _cached_strategy(name)
    t = data.draw(strat)
    nf = normalize(t, doc)
    assert normalize(nf, doc) == nf


@pytest.mark.parametrize("name", ["group", "monoid", "group-action"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_rewrites_preserve_normal_form(name, data):
    """Applying doctrine equations (either direction, anywhere) before
    normalizing never changes the normal form."""
    doc, strat = _cached_strategy(name)
    t = data.draw(strat)
    rewritten = t
    for _ in range(data.draw(st.integers(0, 3))):
        rewritten = _random_rewrite(doc, rewritten, data)
    assert normalize(rewritten, doc) == normalize(t, doc)


def _match(pattern, term, binding):
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == term
        tsort = term.sort if isinstance(term, Var) else term.op.codomain
        if tsort != pattern.sort:
            return False
        binding[pattern.name] = term
        return True
    if isinstance(term, Var) or term.op != pattern.op:
        return False
    return all(_match(p, a, binding) for p, a in zip(pattern.args, term.args))


def _rewrite_at(term, path, replacement):
    if not path:
        return replacement
    head, *rest = path
    args = list(term.args)
    args[head] = _rewrite_at(args[head], rest, replacement)
    return App(term.op, tuple(args))


def _subterm_paths(term, path=()):
    yield path
    if isinstance(term, App):
        for i, a in enumerate(term.args):
            yield from _subterm_paths(a, path + (i,))


def _subterm_at(term, path):
    for i in path:
        term = term.args[i]
    return term


def _random_rewrite(doc, term, data):
    candidates = []
    for path in _subterm_paths(term):
        sub = _subterm_at(term, path)
        for eq in doc.equations:
            for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                binding = {}
                if _match(lhs, sub, binding) and set(
                    v.name for v in eq.context.vars
                ) == set(binding):
                    candidates.append((path, rhs, dict(binding)))
    if not candidates:
        return term
    path, rhs, binding = data.draw(st.sampled_from(candidates))
    return _rewrite_at(term, path, substitute(rhs, binding))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_equal_terms_evaluate_identically(data, group):
    """Exact-engine soundness against small finite models."""
    doc, strat = _cached_strategy("group")
    G = doc.sort("G")
    t1 = data.draw(strat)
    t2 = data.draw(strat)
    verdict = terms_equal(t1, t2, doc)
    for alg in models_for(doc, 4):
        for a in alg.carriers[G]:
            for b in alg.carriers[G]:
                env = {"a": a, "b": b}
                same = evaluate(alg, t1, env) == evaluate(alg, t2, env)
                if verdict is EqResult.EQUAL:
                    assert same


def test_distinct_short_words_separated_by_small_models(group):
    """Exact-engine completeness at small scale: distinct reduced words
    of length <= 3 are separated by some model of size <= 6.  Each term
    gets one evaluation vector over all (model, assignment) pairs;
    distinct normal forms must have distinct vectors."""
    from msat.catalog import symmetric_group_3

    G = group.sort("G")
    ctx = gctx(group)
    terms = enumerate_terms(ctx, G, group, 3)
    models = models_for(group, 4) + [symmetric_group_3(group)]
    vectors = []
    for t in terms:
        vec = []
        for alg in models:
            for a in alg.carriers[G]:
                for b in alg.carriers[G]:
                    vec.append(evaluate(alg, t, {"a": a, "b": b}))
        vectors.append(tuple(vec))
    assert len(set(vectors)) == len(terms)


def test_substitute_errors(group):
    from msat.errors import MissingAssignment, SortMismatch
    from msat.signature import App, Var, substitute

    G = group.sort("G")
    t = App(group.op("inv"), (Var("v1", G),))
    with pytest.raises(MissingAssignment):
        substitute(t, {})
    from msat.builtins import builtin_doctrine

    action = builtin_doctrine("group-action")
    X = action.sort("X")
    with pytest.raises(SortMismatch):
        substitute(t, {"v1": Var("s", X)})


def test_enumerate_requires_exact_engine():
    from msat.dsl import parse_theory
    from msat.errors import UnsupportedDoctrine

    doc = parse_theory("theory t sorts a op f : a -> a end")
    with pytest.raises(UnsupportedDoctrine):
        enumerate_terms(Context.of(("x", doc.sort("a"))), doc.sort("a"), doc, 2)


@pytest.mark.parametrize(
    "ident,kwargs",
    [
        ("monoid", {}),
        ("group", {}),
        ("group-action", {}),
        ("ring-module", {}),
        ("operad-nonsigma", {"level_cap": 3}),
        ("operad-symmetric", {"level_cap": 3}),
        ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "x"),)}),
    ],
)
def test_engine_validates_every_doctrine_equation(ident, kwargs):
    """Both sides of every defining equation share a normal form: the
    exact engines really do decide the presented equivalence."""
    doc = builtin_doctrine(ident, **kwargs)
    for eq in doc.equations:
        assert normalize(eq.lhs, doc) == normalize(eq.rhs, doc), eq.name


EXACT_BUILTINS = [
    ("trivial", {}),
    ("monoid", {}),
    ("group", {}),
    ("group-action", {}),
    ("ring-module", {}),
    ("operad-nonsigma", {"level_cap": 3}),
    ("operad-symmetric", {"level_cap": 3}),
    ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "y"), ("g", "y", "x"))}),
]


@pytest.mark.parametrize("ident,kwargs", EXACT_BUILTINS, ids=[i for i, _ in EXACT_BUILTINS])
def test_value_matches_reference_walk(ident, kwargs):
    """The derived `value` (each operation's generic element bound to
    its arguments' values) agrees with the oracle's walk, which states
    every operation by name, on every raw term of at most 3 nodes over
    each object of size <= 2.  The references of the compose and bind
    tests share `bind` with the code under test; this one does not."""
    doc = builtin_doctrine(ident, **kwargs)
    engine = doc.engine
    count = 0
    for obj in objects_up_to(doc, 2):
        ctx = obj.context()
        env = {v.name: v for v in ctx.vars}
        for s in doc.sorts:
            for t in enumerate_raw_terms(ctx, s, doc, 3, cap=2000):
                assert engine.value(t) == reference_value_with_env(engine, t, env), print_term(t)
                count += 1
    assert count > 0


@pytest.mark.parametrize("ident,kwargs", EXACT_BUILTINS, ids=[i for i, _ in EXACT_BUILTINS])
def test_value_rejects_op_outside_doctrine(ident, kwargs):
    doc = builtin_doctrine(ident, **kwargs)
    for s in doc.sorts:
        for op in (OpSymbol("outside", (), s), OpSymbol("outside", (s,), s)):
            term = App(op, tuple(Var(f"v{i + 1}", d) for i, d in enumerate(op.domain)))
            with pytest.raises(UnknownSymbol, match="'outside'"):
                doc.engine.value(term)


def test_congruence_closure_agrees_with_engine(group, monoid):
    """Equalities provable by the generic congruence-closure engine from
    the doctrine's own equations are confirmed by the exact engine."""
    from msat.engines import BoundedGenericEngine

    for doc in (group, monoid):
        cc = BoundedGenericEngine().attach(doc)
        sort = doc.sorts[0]
        ctx = Context.of(("a", sort), ("b", sort))
        terms = enumerate_raw_terms(ctx, sort, doc, 2, cap=40)
        proved = confirmed = 0
        for i, t1 in enumerate(terms):
            for t2 in terms[i + 1:]:
                if cc.equal(t1, t2, budget=1) is EqResult.EQUAL:
                    proved += 1
                    assert doc.engine.equal(t1, t2) is EqResult.EQUAL
                    confirmed += 1
        assert proved == confirmed and proved > 0


@pytest.mark.parametrize("ident, floor", [("group", 20), ("monoid", 14), ("ring-module", 40)])
def test_generic_engine_sound_above_floor(ident, floor):
    """On a DSL-parsed copy of a built-in theory, every pair of small raw
    terms that the e-graph proves equal is equal in the exact engine, and
    one round proves at least `floor` pairs: what instantiating every
    equation over every combination of subterms proved."""
    from msat.dsl import parse_theory, print_theory

    exact = builtin_doctrine(ident)
    doc = parse_theory(print_theory(exact))
    sort = doc.sorts[0]
    ctx = Context.of(("a", sort), ("b", sort))
    terms = enumerate_raw_terms(ctx, sort, doc, 2, cap=40)
    proved = 0
    for i, t1 in enumerate(terms):
        for t2 in terms[i + 1:]:
            if doc.engine.equal(t1, t2, budget=1) is EqResult.EQUAL:
                proved += 1
                assert exact.engine.equal(t1, t2) is EqResult.EQUAL, (t1, t2)
    assert proved >= floor


def test_generic_engine_stops_at_node_budget():
    """A theory whose e-graph never saturates still gets an answer at any
    round budget: the node budget stops it."""
    from msat.dsl import parse_theory

    doc = parse_theory(
        "theory t sorts a op f : a -> a op g : a a -> a "
        "eq (x:a, y:a) f(x) = f(g(x,y)) end"
    )
    x = Var("x", doc.sort("a"))
    fx = App(doc.op("f"), (x,))
    assert terms_equal(fx, x, doc, budget=10**9) is EqResult.UNKNOWN
    assert terms_equal(fx, App(doc.op("f"), (App(doc.op("g"), (x, x)),)), doc,
                       budget=10**9) is EqResult.EQUAL


@pytest.mark.parametrize("ident", ["monoid", "group"])
@pytest.mark.parametrize("lhs,rhs", [
    ("mul(mul(a,b),e)", "mul(a,b)"),
    ("mul(e,mul(a,b))", "mul(a,b)"),
    ("mul(mul(b,a),e)", "mul(b,a)"),
])
def test_generic_engine_unit_law_with_compound_operand(ident, lhs, rhs):
    """Instances of a unit law whose operand is itself an application are
    found by the congruence-closure engine on a DSL-parsed theory."""
    from msat.dsl import parse_context_text, parse_term_text, parse_theory, print_theory

    doc = parse_theory(print_theory(builtin_doctrine(ident)))
    sort = doc.sorts[0].name
    ctx = parse_context_text(f"a:{sort}, b:{sort}", doc)
    t1, t2 = parse_term_text(lhs, ctx, doc), parse_term_text(rhs, ctx, doc)
    assert doc.engine.equal(t1, t2) is EqResult.EQUAL


def test_interned_values_copy_and_pickle_to_themselves(group):
    import copy
    import pickle

    from msat.catalog import cyclic_group
    from msat.models import as_functor
    from msat.theory_cat import TheoryMorphism, TheoryObject

    G = group.sort("G")
    a = Var("a", G)
    obj = TheoryObject.of(G, G)
    values = [G, group.op("mul"), a, App(group.op("inv"), (a,)), obj,
              TheoryMorphism(obj, TheoryObject.of(G), (obj.context().vars[1],))]
    for x in values:
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    z3 = cyclic_group(group, 3)
    twin = copy.deepcopy(z3)
    assert twin.carriers == z3.carriers and twin.tables == z3.tables
    X = as_functor(z3, 2, 2)
    assert copy.deepcopy(X).arrows == X.arrows
