import gc
import hashlib
import itertools
import random
import weakref

import pytest

import msat.models as models
from msat.builtins import builtin_doctrine
from msat.catalog import (
    action_model,
    assert_catalog_valid,
    cyclic_group,
    faulted_catalog,
    models_for,
    monoid_model,
    trivial_model,
    valid_catalog,
)
from msat.diagram import natural_transformations, representable_diagram
from msat.dsl import parse_model, print_model
from msat.engines import OperadEngine, RingModuleEngine
from msat.errors import ElementNotInCarrier, InvalidParameter, UnboundVariable, UnsupportedDoctrine
from msat.models import (
    AlgebraFunctor,
    FiniteAlgebra,
    _carrier_context,
    _union_names,
    _value,
    adjunction_check,
    as_functor,
    check_equations,
    check_monad_laws,
    check_product_preservation,
    enumerate_homs,
    evaluate,
    free_algebra,
    identity_hom,
)
from msat.signature import (
    App,
    Context,
    Var,
    enumerate_raw_terms,
    enumerate_terms,
    enumerate_values,
    print_term,
    substitute,
    term_vars,
)
from msat.theory_cat import TERMINAL, TheoryObject, hom_enumerate, make_morphism

from oracles import (
    brute_force_homs,
    reference_check_equations,
    reference_check_monad_laws,
)


class TestEvaluate:
    def test_inverse_law_forces_unit(self, group):
        z2 = cyclic_group(group, 2)
        G = group.sort("G")
        a = Var("a", G)
        t = App(group.op("mul"), (App(group.op("inv"), (a,)), a))
        assert evaluate(z2, t, {"a": 1}) == 0

    def test_action_table_lookup(self, action):
        alg = action_model(action, "z2-swap")
        G, X = action.sort("G"), action.sort("X")
        g, s = Var("g", G), Var("s", X)
        t = App(action.op("act"), (App(action.op("mul"), (g, g)), s))
        # table oracle: act(1*1, p) = act(0, p) = p
        assert evaluate(alg, t, {"g": 1, "s": "p"}) == "p"

    def test_variable_returns_env(self, group):
        z2 = cyclic_group(group, 2)
        assert evaluate(z2, Var("a", group.sort("G")), {"a": 1}) == 1

    def test_errors(self, group):
        z2 = cyclic_group(group, 2)
        G = group.sort("G")
        with pytest.raises(UnboundVariable):
            evaluate(z2, Var("a", G), {})
        with pytest.raises(ElementNotInCarrier):
            evaluate(z2, Var("a", G), {"a": 5})

    def test_first_bad_variable_left_to_right_raises(self, group):
        z2 = cyclic_group(group, 2)
        G, mul = group.sort("G"), group.op("mul")
        a, b = Var("a", G), Var("b", G)
        with pytest.raises(ElementNotInCarrier):
            evaluate(z2, App(mul, (a, b)), {"a": 5})
        with pytest.raises(UnboundVariable):
            evaluate(z2, App(mul, (b, a)), {"a": 5})


class TestCheckEquations:
    def test_valid_model_clean(self, group):
        assert check_equations(cyclic_group(group, 2)) == []

    def test_injected_fault_reports_inverse(self, group):
        z2 = cyclic_group(group, 2)
        z2.tables["inv"][(1,)] = 1  # wait, inv(1)=1 is correct in Z2
        z2.tables["inv"][(1,)] = 0
        bad = check_equations(z2)
        assert bad
        assert any(eq.name.startswith("inv") for eq, _ in bad)

    def test_trivial_doctrine_no_equations(self, trivial):
        assert check_equations(trivial_model(trivial, 3)) == []

    def test_matches_reference_on_catalog(self):
        for alg in valid_catalog() + [alg for alg, _desc in faulted_catalog()]:
            assert check_equations(alg) == reference_check_equations(alg), alg.name


class TestMonadLaws:
    def test_valid_models_pass(self, group, monoid):
        assert check_monad_laws(cyclic_group(group, 2), 3) == []
        assert check_monad_laws(monoid_model(monoid, "max2"), 3) == []

    def test_broken_table_counterexample(self, group):
        z2 = cyclic_group(group, 2)
        z2.tables["inv"][(1,)] = 0
        failures = check_monad_laws(z2, 3)
        assert failures
        assert any(f["law"] == "assoc" for f in failures)

    def test_catalog_and_faults(self):
        assert_catalog_valid()
        for alg, _desc in faulted_catalog():
            assert check_monad_laws(alg, 3), alg.name

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_reference_on_catalog(self, depth):
        """Same failures, in the same order, as the memo-free reference."""
        for alg in valid_catalog() + [alg for alg, _desc in faulted_catalog()]:
            assert check_monad_laws(alg, depth) == reference_check_monad_laws(alg, depth), (
                alg.name
            )

    @pytest.mark.parametrize("depth", [0, -1])
    def test_refuses_a_depth_below_one(self, group, depth):
        """Below depth 1 there is no outer term at all, so a pass would
        check nothing; the refusal names the depth."""
        with pytest.raises(InvalidParameter, match=f"not {depth}$"):
            check_monad_laws(cyclic_group(group, 3), depth)

    def test_frees_a_dropped_doctrine_without_a_gc_pass(self):
        """The outer-term enumeration leaves no reference cycle holding
        the doctrine, so dropping it and its model frees it at once."""
        doctrine = builtin_doctrine("group")
        alg = cyclic_group(doctrine, 3)
        ref = weakref.ref(doctrine)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            check_monad_laws(alg, depth=2)
            del doctrine, alg
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("name", ["Z4", "Z6", "S3"])
    def test_matches_reference_on_larger_groups(self, group, name):
        """S3 is non-abelian, so flattening in the wrong order shows
        there; the faulted copy makes the failure lists non-empty."""
        alg = next(m for m in models_for(group, 6) if m.name == name)
        assert check_monad_laws(alg, 3) == reference_check_monad_laws(alg, 3) == []
        (G,) = alg.carriers
        a, b = alg.carriers[G][1:3]
        alg.tables["mul"][(a, a)] = alg.tables["mul"][(a, b)]
        failures = check_monad_laws(alg, 3)
        assert failures and failures == reference_check_monad_laws(alg, 3)

    def test_flattens_each_distinct_normal_form_once(self, fresh_doctrine, monkeypatch):
        """Each kind of work happens once.  Through the tables the check
        folds each inner value once and each distinct flattened value
        once per call.  It binds each distinct normal form of a (slot
        shape, target)'s outer terms once per assignment of inner values
        to the slots that normal form uses, found by a fold that reads
        no table, plus one bind per distinct outer subterm for the
        values of the outer terms.  It renders nothing when no law
        fails.  The outer terms, their normal forms and used slots are
        kept on the doctrine, one entry per (slot shape, target, depth),
        so a second algebra of the doctrine enumerates no outer term and
        binds no outer subterm again."""
        group = fresh_doctrine("group")
        z3 = cyclic_group(group, 3)
        engine, G = group.engine, group.sort("G")
        renders = table_folds = slot_folds = binds = raw_enumerations = 0
        real_render, real_fold, real_bind = engine.render, engine.fold, engine.bind
        real_enumerate = models.enumerate_raw_terms

        def counting_render(value, sort):
            nonlocal renders
            renders += 1
            return real_render(value, sort)

        def counting_fold(value, sort, var, node):
            nonlocal table_folds, slot_folds
            if node is _union_names:
                slot_folds += 1
            elif node is not App:
                table_folds += 1
            return real_fold(value, sort, var, node)

        def counting_bind(value, env, sort):
            nonlocal binds
            binds += 1
            return real_bind(value, env, sort)

        def counting_enumerate(*args, **kwargs):
            nonlocal raw_enumerations
            raw_enumerations += 1
            return real_enumerate(*args, **kwargs)

        ctx = Context(tuple(Var(f"c_G_{e}", G) for e in z3.carriers[G]))
        inner = enumerate_terms(ctx, G, group, 2)[:12]
        flattened = set()  # distinct flattened values over the call
        subterms = set()  # distinct operation nodes of the outer terms
        expected_slot_folds = expected_binds = 0
        shapes = [(G,), (G, G)]
        for shape in shapes:
            slots = Context(tuple(Var(f"w{i+1}", s) for i, s in enumerate(shape)))
            outers = enumerate_raw_terms(slots, G, group, 2, cap=160)
            nfs = {engine.normalize(o) for o in outers}
            expected_slot_folds += len(nfs)
            for nf in nfs:
                expected_binds += len(inner) ** len(term_vars(nf))
                for combo in itertools.product(inner, repeat=len(shape)):
                    asg = {f"w{i+1}": t for i, t in enumerate(combo)}
                    flattened.add(engine.value(substitute(nf, asg)))
            stack = list(outers)
            while stack:
                t = stack.pop()
                if isinstance(t, App) and t not in subterms:
                    subterms.add(t)
                    stack.extend(t.args)
        monkeypatch.setattr(engine, "render", counting_render)
        monkeypatch.setattr(engine, "fold", counting_fold)
        monkeypatch.setattr(engine, "bind", counting_bind)
        monkeypatch.setattr(models, "enumerate_raw_terms", counting_enumerate)
        assert check_monad_laws(z3, 3) == []
        assert table_folds == len(inner) + len(flattened)
        assert slot_folds == expected_slot_folds
        assert binds == expected_binds + len(subterms)
        assert renders == 0
        assert raw_enumerations == len(shapes)
        law_keys = [k for k in group.memo if k[0] == "monad_laws"]
        assert sorted(law_keys, key=len) == [("monad_laws", shape, G, 3) for shape in shapes]

        # warm: a second algebra of the doctrine, then a faulted one
        table_folds = slot_folds = binds = raw_enumerations = 0
        assert check_monad_laws(cyclic_group(group, 3), 3) == []
        assert table_folds == len(inner) + len(flattened)
        assert raw_enumerations == slot_folds == 0
        assert binds == expected_binds
        z3_bad = cyclic_group(group, 3)
        z3_bad.tables["mul"][(1, 1)] = 0
        failures = check_monad_laws(z3_bad, 3)
        assert raw_enumerations == slot_folds == 0
        monkeypatch.undo()
        assert failures and failures == reference_check_monad_laws(z3_bad, 3)
        assert [k for k in group.memo if k[0] == "monad_laws"] == law_keys

    def test_flattenings_differ_inside_one_evaluation_class(self, group):
        """With 1*1 = 1 in Z2, the inner pairs drawn from c_G_1 and
        inv(c_G_1) all evaluate to (1, 1), and mul(w1,w2) flattens them,
        in order, to mul(c_G_1,c_G_1), e, e and
        mul(inv(c_G_1),inv(c_G_1)), which evaluate to 1, 0, 0 and 1.
        The composed side mul(1, 1) = 1 matches the first and the last
        pair but not the middle two.  The class is "mixed", its pairs are
        compared one by one, and exactly the middle two fail, as in the
        reference; a check that let one pair stand for its class would
        miss them."""
        z2 = cyclic_group(group, 2)
        z2.tables["mul"][(1, 1)] = 1
        _, env = _carrier_context(z2)
        mul, inv, c1 = group.op("mul"), group.op("inv"), Var("c_G_1", group.sort("G"))
        inv_c1 = App(inv, (c1,))
        assert _value(z2, c1, env) == _value(z2, inv_c1, env) == 1
        assert _value(z2, App(mul, (c1, c1)), env) == 1
        assert _value(z2, App(mul, (inv_c1, inv_c1)), env) == 1
        failures = check_monad_laws(z2, 2)
        assert failures == reference_check_monad_laws(z2, 2)
        assert [f["inner"] for f in failures if f["outer"] == "mul(w1,w2)"] == [
            ["c_G_1", "inv(c_G_1)"], ["inv(c_G_1)", "c_G_1"],
        ]
        assert all((f["flattened"], f["composed"]) == (0, 1) for f in failures)

    def test_table_changed_between_calls(self, group):
        z2 = cyclic_group(group, 2)
        assert check_monad_laws(z2, 3) == []
        assert check_equations(z2) == []
        z2.tables["inv"][(1,)] = 0
        failures = check_monad_laws(z2, 3)
        assert failures and failures == reference_check_monad_laws(z2, 3)
        bad = check_equations(z2)
        assert bad and bad == reference_check_equations(z2)


def _edge_values(doc):
    """The values the operad and ring-module kernels treat apart: the
    bare leaf of P1 (the operad unit) and the constant polynomial 1,
    whose one monomial is empty."""
    if isinstance(doc.engine, OperadEngine):
        return {doc.sort("P1"): 1}
    if isinstance(doc.engine, RingModuleEngine):
        return {doc.sort("R"): frozenset({((), 1)})}
    return {}


def _fold_models():
    """The valid and faulted catalog, plus the symmetric operad models
    (the only ones whose values carry a leaf permutation)."""
    symmetric = models_for(builtin_doctrine("operad-symmetric", level_cap=2))
    for alg in symmetric:
        alg.name += "-sigma"
    return valid_catalog() + [alg for alg, _desc in faulted_catalog()] + symmetric


class TestFold:
    """`Engine.fold` walks the canonical term: with the tables at its
    operations it evaluates that term, without building it."""

    @pytest.mark.parametrize("alg", _fold_models(), ids=lambda alg: alg.name)
    def test_table_fold_evaluates_rendered_term(self, alg):
        doc, engine = alg.doctrine, alg.doctrine.engine
        ctx, env = _carrier_context(alg)

        def var(v):
            return env[v.name]

        def node(op, args):
            return alg.tables[op.name][args]

        seen = set()
        for s in doc.sorts:
            for t in enumerate_terms(ctx, s, doc, 3):
                v = engine.value(t)
                assert engine.fold(v, s, var, node) == _value(alg, engine.render(v, s), env), (
                    print_term(t)
                )
                seen.add((s, v))
        assert seen
        assert set(_edge_values(doc).items()) <= seen

    def test_past_level_cap_raises_the_same_error(self):
        doc = builtin_doctrine("operad-nonsigma", level_cap=2)
        engine, P2 = doc.engine, doc.sort("P2")
        g = Var("g", P2)
        deep = (g, ((g, (1, 2)), (g, (3, 4))))  # four leaves: beyond level 2
        with pytest.raises(UnsupportedDoctrine) as rendered:
            engine.render(deep, P2)
        with pytest.raises(UnsupportedDoctrine) as folded:
            engine.fold(deep, P2, lambda v: 0, lambda op, args: 0)
        assert str(folded.value) == str(rendered.value)
        assert "exceeds level cap 2" in str(folded.value)


KERNEL_DOCTRINES = [
    ("operad-nonsigma", {"level_cap": 3}),
    ("operad-symmetric", {"level_cap": 3}),
    ("ring-module", {}),
]


class TestKernels:
    """The operad and ring-module `bind` against term substitution, on
    every value of every sort at bound 3, the edge values included, in
    seeded environments.  `TestFold` pins `fold` on the values of the
    catalog models' carriers, the edge values included."""

    @pytest.mark.parametrize("ident, kwargs", KERNEL_DOCTRINES,
                             ids=[ident for ident, _ in KERNEL_DOCTRINES])
    def test_bind_is_term_substitution(self, ident, kwargs):
        doc = builtin_doctrine(ident, **kwargs)
        engine = doc.engine
        ctx = Context(tuple(Var(f"{s.name.lower()}_{i}", s) for s in doc.sorts for i in (1, 2)))
        values = {s: enumerate_values(ctx, s, doc, 3) for s in doc.sorts}
        edges = _edge_values(doc)
        assert all(v in values[s] for s, v in edges.items())
        rng = random.Random(29)
        envs = [{x.name: edges.get(x.sort, x) for x in ctx.vars}]
        envs += [{x.name: rng.choice(values[x.sort]) for x in ctx.vars} for _ in range(4)]
        for s in doc.sorts:
            for v in values[s]:
                term = engine.render(v, s)
                for env in envs:
                    asg = {x.name: engine.render(env[x.name], x.sort) for x in ctx.vars}
                    assert engine.bind(v, env, s) == engine.value(substitute(term, asg)), (
                        print_term(term), {n: print_term(t) for n, t in asg.items()}
                    )


@pytest.mark.parametrize("check", [
    lambda alg: check_monad_laws(alg, 3),
    check_equations,
    lambda alg: enumerate_homs(alg, alg),
    lambda alg: enumerate_homs(cyclic_group(alg.doctrine, 2), alg),
], ids=["check_monad_laws", "check_equations", "enumerate_homs", "enumerate_homs_target"])
def test_table_leaving_carrier_raises_typed_error(group, check):
    z2 = cyclic_group(group, 2)
    z2.tables["inv"][(1,)] = 5
    with pytest.raises(ElementNotInCarrier, match=r"inv\(1,\) = 5"):
        check(z2)


def test_repeated_carrier_element_rejected(trivial, group):
    """A carrier that names an element twice would double-count homs
    (8 into set2 at the parent, where 4 is right) instead of failing."""
    el = trivial.sort("el")
    with pytest.raises(InvalidParameter, match="carrier of sort el repeats element 'a'"):
        FiniteAlgebra(trivial, {el: ("a", "a", "b")}, {}, "d")
    text = print_model(cyclic_group(group, 2)).replace("{0, 1}", "{0, 1, 0}")
    with pytest.raises(InvalidParameter, match="carrier of sort G repeats element '0'"):
        parse_model(text, group)


class TestAsFunctor:
    def test_values_are_powers(self, group):
        z2 = cyclic_group(group, 2)
        X = as_functor(z2, 2)
        G = group.sort("G")
        assert len(X.value(TheoryObject.of(G, G))) == 4
        assert len(X.value(TERMINAL)) == 1

    def test_morphism_action_is_the_table(self, group):
        z2 = cyclic_group(group, 2)
        X = as_functor(z2, 2)
        G = group.sort("G")
        Tgg, Tg = TheoryObject.of(G, G), TheoryObject.of(G)
        mul = make_morphism(
            group, Tgg, Tg, (App(group.op("mul"), (Var("v1", G), Var("v2", G))),)
        )
        table = X.arrows[mul]
        for a in (0, 1):
            for b in (0, 1):
                assert table[(a, b)] == (z2.tables["mul"][(a, b)],)

    def test_functoriality_exhaustive(self, group):
        """H commutes with composition over the whole bounded hom set."""
        z2 = cyclic_group(group, 2)
        fn = AlgebraFunctor(z2, 2)
        from msat.theory_cat import compose, objects_up_to

        objs = objects_up_to(group, 2)
        for a in objs:
            for b in objs:
                for c in objs:
                    for f in hom_enumerate(a, b, group, 2):
                        mf = fn.morphism_map(f)
                        for g in hom_enumerate(b, c, group, 2):
                            mg = fn.morphism_map(g)
                            mgf = fn.morphism_map(compose(group, g, f))
                            for x in fn.value(a):
                                assert mgf[x] == mg[mf[x]]

    def test_strict_by_construction(self, action):
        alg = action_model(action, "z2-swap")
        ok, failures = check_product_preservation(as_functor(alg, 2))
        assert ok, failures

    def test_product_preservation_counterexamples(self, trivial):
        from msat.diagram import DiagramOnTruncation
        from msat.theory_cat import generating_morphisms

        el = trivial.sort("el")
        T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
        values = {TERMINAL: ("pt",), T1: ("a", "b"), T2: ("z", "w")}
        arrows = {}
        for m in generating_morphisms(trivial, 2):
            if m.source == T1 and m.target == T2:
                arrows[m] = {"a": "z", "b": "w"}
            elif m.source == T2 and m.target == T1:
                arrows[m] = {"z": "a", "w": "b"}
            elif m.source == T2 and m.target == T2:
                arrows[m] = {"z": "z", "w": "w"}
            elif m.source == T1 and m.target == T1:
                arrows[m] = {"a": "a", "b": "b"}
            elif m.target == TERMINAL:
                arrows[m] = {x: "pt" for x in values[m.source]}
        X = DiagramOnTruncation(trivial, 2, 2, values, arrows)
        ok, failures = check_product_preservation(X)
        assert not ok
        assert failures[0]["value"] == 2 and failures[0]["product"] == 4
        # terminal violation
        values2 = dict(values)
        values2[TERMINAL] = ("p", "q")
        arrows2 = {
            m: (dict(t) if m.target != TERMINAL else {x: "p" for x in t})
            for m, t in arrows.items()
        }
        for m in list(arrows2):
            if m.source == TERMINAL:
                arrows2[m] = {"p": "p", "q": "q"} if m.target == TERMINAL else arrows2[m]
        X2 = DiagramOnTruncation(trivial, 2, 2, values2, arrows2)
        ok2, failures2 = check_product_preservation(X2)
        assert not ok2
        assert any(f["object"] == "" for f in failures2)


class TestHoms:
    def test_group_endomorphisms_of_z2(self, group):
        z2 = cyclic_group(group, 2)
        assert len(enumerate_homs(z2, z2)) == 2

    def test_trivial_all_functions(self, trivial):
        a = trivial_model(trivial, 2)
        b = trivial_model(trivial, 3)
        assert len(enumerate_homs(a, b)) == 9

    def test_identity_present(self, group):
        z3 = cyclic_group(group, 3)
        homs = enumerate_homs(z3, z3)
        assert identity_hom(z3) in homs

    def test_matches_brute_force_in_order(self, group):
        """Every same-doctrine pair of catalog models (faulted ones and the
        groups up to order 6 included) whose brute-force space is at most
        3e5 families, compared as ordered lists; the ocat models have
        empty carriers."""
        catalog = valid_catalog() + [a for a, _ in faulted_catalog()] + [
            a for a in models_for(group, 6) if a.name in ("Z4", "Z6", "S3")]
        compared = 0
        for A in catalog:
            for B in catalog:
                if A.doctrine.name != B.doctrine.name:
                    continue
                families = 1
                for s, dom in A.carriers.items():
                    families *= len(B.carriers[s]) ** len(dom)
                if families > 3 * 10**5:
                    continue
                got = [h.components for h in enumerate_homs(A, B)]
                assert got == brute_force_homs(A, B), (A.name, B.name)
                compared += 1
        assert compared >= 88  # the same-doctrine pairs of valid_catalog() alone


class TestFreeAlgebra:
    def test_action_orbit_shape(self, action):
        G, X = action.sort("G"), action.sort("X")
        P = free_algebra(action, {G: ["a"], X: ["s"]})
        terms = P.enumerate(X, 2)
        assert [print_term(t) for t in terms] == [
            "s", "act(a,s)", "act(inv(a),s)", "act(a,act(a,s))",
            "act(inv(a),act(inv(a),s))",
        ]

    def test_module_is_linear_combinations(self, ring_module):
        R, M = ring_module.sort("R"), ring_module.sort("M")
        P = free_algebra(ring_module, {R: ["a"], M: ["m"]})
        terms = P.enumerate(M, 2)
        printed = {print_term(t) for t in terms}
        assert "m" in printed and "smul(a,m)" in printed
        assert all("m" in s for s in printed - {"mzero"})

    def test_operad_level_counts(self):
        doc = builtin_doctrine("operad-nonsigma", level_cap=4)
        P2 = doc.sort("P2")
        P = free_algebra(doc, {P2: ["m"]})
        assert len(P.enumerate(doc.sort("P4"), 3)) == 5  # Catalan(3)

    def test_membership_and_equality(self, group):
        G = group.sort("G")
        P = free_algebra(group, {G: ["a", "b"]})
        a, b = Var("a", G), Var("b", G)
        t = App(group.op("mul"), (a, b))
        assert P.contains(t)
        assert not P.contains(Var("zz", G))
        from msat.signature import EqResult

        t2 = App(group.op("mul"), (a, App(group.op("mul"), (App(group.op("e")), b))))
        assert P.equal(t, t2) is EqResult.EQUAL


class TestAdjunction:
    def test_monoid_singleton(self, monoid):
        alg = monoid_model(monoid, "max2")
        assert adjunction_check(monoid, monoid.sort("m"), ["y"], alg)

    def test_empty_generators(self, monoid):
        alg = monoid_model(monoid, "max2")
        assert adjunction_check(monoid, monoid.sort("m"), [], alg)

    def test_action_point_sort(self, action):
        alg = action_model(action, "z2-swap")
        assert adjunction_check(action, action.sort("X"), ["y"], alg)

    def test_all_builtins_all_sorts(self):
        configs = [
            builtin_doctrine("trivial"),
            builtin_doctrine("monoid"),
            builtin_doctrine("group"),
            builtin_doctrine("group-action"),
            builtin_doctrine("ring-module"),
            builtin_doctrine("operad-nonsigma", level_cap=2),
            builtin_doctrine("operad-symmetric", level_cap=2),
            builtin_doctrine("ocat", objects=("x", "y"), edges=(("f", "x", "x"),)),
        ]
        for doc in configs:
            for alg in models_for(doc, 3)[:2]:
                for sort in doc.sorts:
                    for gens in ([], ["y1"], ["y1", "y2"]):
                        assert adjunction_check(doc, sort, gens, alg), (
                            doc.name, alg.name, sort.name, len(gens)
                        )


class TestYonedaAtSetLevel:
    def test_bijection_with_carrier(self, group):
        for alg in models_for(group, 3):
            H = AlgebraFunctor(alg, 2)
            for sort in group.sorts:
                X = representable_diagram(group, TheoryObject.of(sort), 2, 2)
                nats = natural_transformations(X, H)
                assert len(nats) == len(alg.carriers[sort])

    def test_naturality_on_random_composites(self, group):
        """The generating-arrow constraint set is strong enough: every
        found transformation stays natural for arbitrary enumerated
        composites (tested assumption behind the enumeration)."""
        from msat.theory_cat import compose, objects_up_to

        alg = cyclic_group(group, 3)
        H = AlgebraFunctor(alg, 2)
        G = group.sort("G")
        X = representable_diagram(group, TheoryObject.of(G), 2, 2)
        nats = natural_transformations(X, H)
        objs = objects_up_to(group, 2)
        closure, _ = X.arrow_closure()
        for a in objs:
            for b in objs:
                for w in hom_enumerate(a, b, group, 2):
                    table = closure.get(w)
                    if table is None:
                        continue
                    wmap = H.morphism_map(w)
                    for nat in nats:
                        for x, y in table.items():
                            assert nat[(b, y)] == wmap[nat[(a, x)]]


from hypothesis import given, settings, strategies as st

from test_signature import _cached_strategy


@pytest.mark.parametrize(
    "name", ["group", "monoid", "group-action", "ring-module", "operad"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evaluate_commutes_with_normalize(name, data):
    """evaluate(normalize(t)) == evaluate(t) on fuzzed terms over every
    built-in doctrine, against all catalog models of size <= 3."""
    from msat.signature import normalize, term_vars

    doc, strat = _cached_strategy(name)
    t = data.draw(strat)
    nf = normalize(t, doc)
    for alg in models_for(doc, 3):
        names = list(term_vars(t).values()) or []
        spaces = [alg.carriers[v.sort] for v in names]
        for combo in itertools.product(*spaces):
            env = {v.name: e for v, e in zip(names, combo)}
            # the normal form may mention fewer variables
            assert evaluate(alg, nf, env) == evaluate(alg, t, env)


class TestOperadSemantics:
    """The generated operad equations and the tree engine are validated
    against the endomorphism operad of a two-element set, which has a
    noncommutative composition and a faithful symmetric-group action."""

    def test_endomorphism_operad_satisfies_equations(self):
        from msat.catalog import endomorphism_operad

        for ident in ("operad-nonsigma", "operad-symmetric"):
            doc = builtin_doctrine(ident, level_cap=2)
            assert check_equations(endomorphism_operad(doc)) == []

    def test_engine_sound_against_endomorphism_operad(self):
        from msat.catalog import endomorphism_operad
        from msat.signature import enumerate_raw_terms, normalize

        doc = builtin_doctrine("operad-symmetric", level_cap=2)
        alg = endomorphism_operad(doc)
        m = Var("m", doc.sort("P2"))
        u = Var("u", doc.sort("P1"))
        ctx = Context((m, u))
        for sort in doc.sorts:
            for t in enumerate_raw_terms(ctx, sort, doc, 2, cap=200):
                nf = normalize(t, doc)
                for p in alg.carriers[doc.sort("P2")][:4]:
                    for q in alg.carriers[doc.sort("P1")]:
                        env = {"m": p, "u": q}
                        assert evaluate(alg, t, env) == evaluate(alg, nf, env), (
                            print_term(t), print_term(nf)
                        )


# sha256 and count of the "levels sort bound: term" lines of every
# operad value enumerated below, recorded while a value was still a
# (tree, labels) pair
OPERAD_ENUMERATION_DIGESTS = {
    "operad-nonsigma": (51, "4634d29dab016760841977bf30144c576697e117d4bd7147a66fe1e13038f3e4"),
    "operad-symmetric": (144, "7e7b50feb07284eb27f54930457e205a8ae4e6413d4d65bcc8746b1521cb1c70"),
}


@pytest.mark.parametrize("name", list(OPERAD_ENUMERATION_DIGESTS))
def test_operad_enumeration_is_pinned(name):
    """`enumerate_values` lists the same operad values in the same order:
    every sort at level cap 3, generator contexts of one and of two
    generators, bounds 0-2."""
    doc = builtin_doctrine(name, level_cap=3)
    digest, count = hashlib.sha256(), 0
    for levels in [(2,), (3,), (0, 2), (1, 2), (2, 2)]:
        ctx = Context(tuple(Var("ab"[i], doc.sort(f"P{lv}")) for i, lv in enumerate(levels)))
        for sort in doc.sorts:
            for bound in range(3):
                for v in doc.engine.enumerate_values(ctx, sort, bound):
                    term = print_term(doc.engine.render(v, sort))
                    digest.update(f"{levels} {sort.name} {bound}: {term}\n".encode())
                    count += 1
    assert (count, digest.hexdigest()) == OPERAD_ENUMERATION_DIGESTS[name]
