import itertools
import math

import pytest

import msat.rigidify as rigidify
from msat.catalog import models_for, trivial_model
from msat.diagram import (
    DiagramOnTruncation,
    natural_transformations,
    representable_diagram,
)
from msat.dsl import parse_theory
from msat.errors import (
    BudgetExhausted,
    DoctrineMismatch,
    HomEnumerationIncomplete,
    InvalidParameter,
)
from msat.fuzz import make_rng, random_trivial_diagram, twisted_algebra_diagram
from msat.models import AlgebraFunctor, as_functor, check_product_preservation, evaluate
from msat.presentations import AlgebraPresentation, free_presentation, homs_into
from msat.rigidify import (
    ProjectionMap,
    check_strictly_local,
    injectivity_step,
    localize,
    projection_map_set,
    restrict_nat,
    rigidify_presentation,
    surjectivity_step,
    verify_ktk,
    verify_universal_property,
)
from msat.signature import App, Var
from msat.theory_cat import TERMINAL, TheoryObject, generating_morphisms, projection

from oracles import pushout_classes, trivial_homset


def toy_diagram(trivial, t2_cells=("z", "w"), points=("a", "b")):
    """X(T1) = {a, b} with only diagonal cells upstairs: functorial but
    not strictly local (2 != 4).  `points` replaces a, b; `t2_cells`
    lists one diagonal cell per point."""
    el = trivial.sort("el")
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    values = {TERMINAL: ("pt",), T1: tuple(points), T2: tuple(t2_cells)}
    diag = dict(zip(points, t2_cells))
    arrows = {}
    for m in generating_morphisms(trivial, 2):
        if m.source == T1 and m.target == T2:
            arrows[m] = diag
        elif m.source == T2 and m.target == T1:
            arrows[m] = {c: k for k, c in diag.items()}
        elif m.source == T2 and m.target == T2:
            arrows[m] = {c: c for c in t2_cells}
        elif m.source == T1 and m.target == T1:
            arrows[m] = {x: x for x in points}
        elif m.target == TERMINAL:
            arrows[m] = {x: "pt" for x in values[m.source]}
    return DiagramOnTruncation(trivial, 2, 2, values, arrows)


def repeated_element_diagram(trivial, t1=("a",), t2=("p", "p")):
    """By default X(T1) = [a] and X(T2) = [p, p]: the value list of T2
    names one element twice, so the canonical map X(T2) -> X(T1)^2 is
    not injective.  With t1=("a", "a") and t2=("p",) the product
    X(T1)^2 lists (a, a) four times, so that map is not onto it."""
    el = trivial.sort("el")
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    values = {TERMINAL: ("pt",), T1: t1, T2: t2}
    arrows = {}
    for m in generating_morphisms(trivial, 2):
        if m.target == TERMINAL:
            arrows[m] = {x: "pt" for x in values[m.source]}
        elif m.source == TERMINAL:
            arrows[m] = {"pt": values[m.target][0]}
        else:
            arrows[m] = {x: values[m.target][0] for x in values[m.source]}
    return DiagramOnTruncation(trivial, 2, 2, values, arrows)


def projection_images(X, obj):
    """The image of every element of X(obj) under the projection tables."""
    images = X.comparison(obj)
    return [images[x] for x in X.value(obj)]


class TestProjectionMaps:
    def test_counts(self, trivial, action):
        assert len(projection_map_set(trivial, 2)) == 1
        assert len(projection_map_set(action, 2)) == 3
        assert len(projection_map_set(trivial, 3)) == 2

    def test_structure(self, trivial):
        p = projection_map_set(trivial, 2)[0]
        assert p.arity == 2
        assert all(m.source == p.target for m in p.projections)


class TestStrictlyLocal:
    def test_algebra_functors_local(self, group, action):
        from msat.catalog import action_model, cyclic_group

        for alg in (cyclic_group(group, 2), action_model(action, "z2-swap")):
            ok, _ = check_strictly_local(as_functor(alg, 2))
            assert ok

    def test_toy_fails_with_cardinalities(self, trivial):
        ok, failures = check_strictly_local(toy_diagram(trivial))
        assert not ok
        assert failures[0]["value"] == 2 and failures[0]["product"] == 4

    def test_terminal_condition(self, trivial):
        X = toy_diagram(trivial)
        values = dict(X.values)
        values[TERMINAL] = ("p", "q")
        arrows = {}
        for m, t in X.arrows.items():
            if m.source == TERMINAL:
                arrows[m] = {"p": "p", "q": "q"}
            elif m.target == TERMINAL:
                arrows[m] = {x: "p" for x in t}
            else:
                arrows[m] = dict(t)
        X2 = DiagramOnTruncation(trivial, 2, 2, values, arrows)
        ok, failures = check_strictly_local(X2)
        assert not ok
        assert any(f["object"] == "" for f in failures)

    def test_partial_projection_table_named_on_every_route(self, trivial):
        from msat.simplicial import SimplicialDiagram, check_strict

        X = toy_diagram(trivial)
        T2 = TheoryObject.of(trivial.sort("el"), trivial.sort("el"))
        arrows = dict(X.arrows)
        arrows[projection(T2, [1])] = {"z": "a"}
        X2 = DiagramOnTruncation(trivial, 2, 2, X.values, arrows)
        SD = SimplicialDiagram(trivial, 0, [X2], {}, {})
        for failures in (check_strictly_local(X2)[1], check_product_preservation(X2)[1],
                         check_strict(SD)[1]):
            assert [f.get("error") for f in failures] == ["projection tables partial"]
        del arrows[projection(T2, [1])]
        X3 = DiagramOnTruncation(trivial, 2, 2, X.values, arrows)
        assert check_product_preservation(X3)[1][0]["error"] == "projection tables missing"

    def test_partial_projection_table_transposes_no_hom(self, trivial):
        X = toy_diagram(trivial)
        T2 = TheoryObject.of(trivial.sort("el"), trivial.sort("el"))
        arrows = dict(X.arrows)
        arrows[projection(T2, [1])] = {"z": "a"}
        X2 = DiagramOnTruncation(trivial, 2, 2, X.values, arrows)
        ok, report = verify_universal_property(X2, rigidify_presentation(X2), 3)
        assert not ok
        assert [(r["model"], r["bijection"]) for r in report] == [
            ("set1", False), ("set2", False), ("set3", False)]

    def test_repeated_element_fails(self, trivial):
        X = repeated_element_diagram(trivial)
        for ok, failures in (check_strictly_local(X), check_product_preservation(X)):
            assert not ok
            assert failures == [{"object": "el,el", "value": 2, "product": 1}]

    def test_repeated_factor_element_fails(self, trivial):
        X = repeated_element_diagram(trivial, t1=("a", "a"), t2=("p",))
        for ok, failures in (check_strictly_local(X), check_product_preservation(X)):
            assert not ok
            assert failures == [{"object": "el,el", "value": 1, "product": 4}]

    def test_agrees_with_product_preservation_fuzzed(self, trivial):
        rng = make_rng(5)
        for _ in range(60):
            X = random_trivial_diagram(rng, trivial, "any")
            assert check_strictly_local(X)[0] == check_product_preservation(X)[0]


class TestStepsAgainstOracle:
    def _oracle_surjectivity_sizes(self, X, trivial):
        """Independent objectwise pushout: attach one representable cell
        per tuple in the product of the point values, using index-tuple
        hom sets for the no-op theory."""
        el = trivial.sort("el")
        T1 = TheoryObject.of(el)
        points = X.value(T1)
        tuples = list(itertools.product(points, points))
        proj_arrows = [X.arrows[projection(TheoryObject.of(el, el), [i])] for i in (1, 2)]
        sizes = {}
        for obj in X.objects():
            n = obj.size
            b_cells = [(zi, b) for zi in range(len(tuples)) for b in trivial_homset(2, n)]
            apex = []
            left = {}
            right = {}
            for zi, z in enumerate(tuples):
                for i in (1, 2):
                    for f in trivial_homset(1, n):
                        a = (zi, i, f)
                        apex.append(a)
                        # X(f) for a variable map out of T1 is forced:
                        # every slot reads the single point z_i
                        img = z[i - 1]
                        if n == 0:
                            left[a] = "pt" if obj == TERMINAL else img
                        elif n == 1:
                            left[a] = img
                        else:
                            # f = (1,1): the diagonal arrow of X at z_i
                            diag = next(
                                m for m in X.arrows
                                if m.source == T1 and m.target == obj
                            )
                            left[a] = X.arrows[diag][img]
                        right[a] = (zi, tuple(i for _ in range(n)))
            if obj == TERMINAL:
                xs = X.value(obj)
                left = {a: "pt" for a in apex}
            else:
                xs = X.value(obj)
            classes = pushout_classes(apex, left, right, xs, b_cells)
            sizes[obj.key()] = len(classes)
        return sizes

    def test_surjectivity_matches_oracle_on_toy(self, trivial):
        X = toy_diagram(trivial)
        p = projection_map_set(trivial, 2)[0]
        res = surjectivity_step(X, p)
        assert res.sizes == self._oracle_surjectivity_sizes(X, trivial)
        assert res.sizes["el,el"] == 10  # 2 + 4*4 - 8 glued cells

    def test_surjectivity_composes_once_per_attaching_morphism(self, fresh_doctrine,
                                                                monkeypatch):
        """The attaching data and the glued copies' arrow tables do not
        depend on the tuple a copy is glued at: with the representable
        already in the doctrine's memo, 3 points (9 tuples) compose no
        more often than 2 points (4 tuples)."""
        trivial = fresh_doctrine("trivial")
        p = projection_map_set(trivial, 2)[0]
        two = toy_diagram(trivial)
        three = toy_diagram(trivial, ("z", "w", "u"), points=("a", "b", "c"))
        surjectivity_step(two, p)  # warms the doctrine's memo
        calls = []
        compose = rigidify.compose

        def counting(doctrine, g, f):
            calls.append(g)
            return compose(doctrine, g, f)

        monkeypatch.setattr(rigidify, "compose", counting)
        counts = []
        for X in (two, three):
            calls.clear()
            res = surjectivity_step(X, p)
            assert res.sizes == self._oracle_surjectivity_sizes(X, trivial)
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1]

    def test_surjectivity_matches_oracle_fuzzed(self, trivial):
        rng = make_rng(23)
        p = projection_map_set(trivial, 2)[0]
        for _ in range(25):
            X = random_trivial_diagram(rng, trivial, "any")
            res = surjectivity_step(X, p)
            assert res.sizes == self._oracle_surjectivity_sizes(X, trivial)

    def test_surjectivity_makes_restriction_surjective(self, trivial):
        """Post-condition: every tuple of point values is hit by some
        element of the new square object."""
        rng = make_rng(31)
        p = projection_map_set(trivial, 2)[0]
        el = trivial.sort("el")
        T2 = TheoryObject.of(el, el)
        for _ in range(10):
            X = random_trivial_diagram(rng, trivial, "any")
            X2 = surjectivity_step(X, p).diagram
            points = X2.value(TheoryObject.of(el))
            assert set(projection_images(X2, T2)) == set(itertools.product(points, points))

    def test_injectivity_collapses_fibers(self, trivial):
        X = toy_diagram(trivial)
        p = projection_map_set(trivial, 2)[0]
        X2 = surjectivity_step(X, p).diagram
        res = injectivity_step(X2, p)
        el = trivial.sort("el")
        T2 = TheoryObject.of(el, el)
        images = projection_images(res.diagram, T2)
        assert len(set(images)) == len(images)
        assert check_strictly_local(res.diagram)[0]

    def test_injectivity_identity_when_already_injective(self, trivial):
        X = as_functor(trivial_model(trivial, 2), 2)
        p = projection_map_set(trivial, 2)[0]
        res = injectivity_step(X, p)
        assert res.sizes == {
            obj.key(): len(X.value(obj)) for obj in X.objects()
        }

    def test_steps_are_strict_local_equivalences(self, trivial):
        """Restriction along the unit of each step is a bijection on
        transformations into every finite model's functor."""
        rng = make_rng(41)
        p = projection_map_set(trivial, 2)[0]
        models = models_for(trivial, 3)
        for _ in range(8):
            X = random_trivial_diagram(rng, trivial, "any")
            for step in (surjectivity_step, injectivity_step):
                res = step(X, p)
                for alg in models:
                    H = AlgebraFunctor(alg, 2)
                    before = natural_transformations(X, H)
                    after = natural_transformations(res.diagram, H)
                    restricted = [restrict_nat(nat, res.unit) for nat in after]
                    keys = [frozenset(r.items()) for r in restricted]
                    assert len(set(keys)) == len(keys)
                    assert set(keys) == {frozenset(n.items()) for n in before}

    def test_incomplete_enumeration_raises(self, group):
        X = as_functor(models_for(group, 2)[1], 2)
        p = projection_map_set(group, 2)[0]
        with pytest.raises(HomEnumerationIncomplete):
            surjectivity_step(X, p)


class TestLocalize:
    def test_already_local_returns_unchanged(self, trivial):
        X = as_functor(trivial_model(trivial, 2), 2)
        res = localize(X, 4)
        assert res.trace[0]["note"] == "already strictly local"
        assert res.diagram is X

    def test_toy_reaches_local_within_budget(self, trivial):
        res = localize(toy_diagram(trivial), 4)
        assert check_strictly_local(res.diagram)[0]
        steps = [t for t in res.trace if t["kind"] in ("surjectivity", "injectivity")]
        assert 0 < len(steps) <= 4

    def test_budget_zero_raises(self, trivial):
        with pytest.raises(BudgetExhausted) as err:
            localize(toy_diagram(trivial), 0)
        assert err.value.trace == []

    def test_unit_map_composes(self, trivial):
        X = toy_diagram(trivial)
        res = localize(X, 4)
        el = trivial.sort("el")
        T1 = TheoryObject.of(el)
        assert set(res.unit[T1]) == set(X.value(T1))
        final = set(res.diagram.value(T1))
        assert set(res.unit[T1].values()) <= final


class TestPresentation:
    def test_toy_presentation_collapses(self, trivial):
        P = rigidify_presentation(toy_diagram(trivial))
        assert P.gen_count() == 2
        assert P.relations == ()

    def test_representable_presents_free_algebra(self, group):
        """Hom sets into finite models match the free algebra on one
        generator."""
        G = group.sort("G")
        X = representable_diagram(group, TheoryObject.of(G), 2, 2)
        P = rigidify_presentation(X)
        from msat.models import free_algebra

        F = free_algebra(group, {G: ["g"]})
        for alg in models_for(group, 3):
            assert len(homs_into(P, alg)) == len(homs_into(F, alg)) == len(
                alg.carriers[G]
            )

    def test_universal_property_toy(self, trivial):
        X = toy_diagram(trivial)
        P = rigidify_presentation(X)
        ok, report = verify_universal_property(X, P, 3)
        assert ok
        two = [r for r in report if r["model"] == "set2"]
        assert two and two[0]["homs"] == 4 and two[0]["nats"] == 4

    def test_repeated_element_is_one_unknown(self, trivial):
        # X(T2) = [p, p] names p twice: one transformation per choice
        # of eta(a), whatever the value list repeats
        X = repeated_element_diagram(trivial)
        counts = [
            len(natural_transformations(X, AlgebraFunctor(alg, 2)))
            for alg in models_for(trivial, 3)
        ]
        assert counts == [1, 2, 3]
        ok, report = verify_universal_property(X, rigidify_presentation(X), 3)
        assert ok
        assert [(r["homs"], r["nats"]) for r in report] == [(1, 1), (2, 2), (3, 3)]

    def test_universal_property_at_object_bound_zero_is_refused(self, trivial):
        """No size-one object holds the generators, so the check raises
        the presentation's error rather than a `KeyError`."""
        X = DiagramOnTruncation(trivial, 0, 2, {TERMINAL: ("pt",)}, {})
        P = free_presentation(trivial, {trivial.sort("el"): ("g",)}, "hand-built")
        with pytest.raises(InvalidParameter,
                           match=r"^rigidify needs object bound >= 1, got 0$"):
            verify_universal_property(X, P, 3)

    def test_universal_property_round_trip(self, group, ocat, monoid):
        for doc in (group, ocat, monoid):
            for alg in models_for(doc, 3)[:2]:
                X = as_functor(alg, 2)
                P = rigidify_presentation(X)
                ok, _ = verify_universal_property(X, P, 3)
                assert ok, (doc.name, alg.name)

    def test_unit_on_strict_objects(self, group):
        """Hom(strictified H_A, A') matches both the transformation set
        Nat(H_A, H_A') and the homomorphism set Hom(A, A')."""
        from msat.models import enumerate_homs

        algs = models_for(group, 3)
        for A in algs:
            X = as_functor(A, 2)
            P = rigidify_presentation(X)
            for B in algs:
                H = AlgebraFunctor(B, 2)
                nats = natural_transformations(X, H)
                homs = homs_into(P, B)
                direct = enumerate_homs(A, B)
                assert len(nats) == len(homs) == len(direct)

    def test_universal_property_fuzzed(self, trivial, ocat):
        rng = make_rng(77)
        count = 0
        for _ in range(30):
            X = random_trivial_diagram(rng, trivial, "any")
            ok, _ = verify_universal_property(X, rigidify_presentation(X), 2)
            assert ok
            count += 1
        for alg in models_for(ocat, 3)[:2]:
            for dups in (0, 1, 2):
                X = twisted_algebra_diagram(rng, alg, 2, 2, duplicates=dups)
                ok, _ = verify_universal_property(X, rigidify_presentation(X), 2)
                assert ok
                count += 1
        assert count >= 36


class TestKtk:
    def test_single_sorted_counts(self, trivial, group):
        p = projection_map_set(trivial, 2)[0]
        ok, report = verify_ktk(trivial, p, 3)
        assert ok
        set3 = [r for r in report if r["model"] == "set3"][0]
        assert set3["product"] == 9
        pg = projection_map_set(group, 2)[0]
        ok, report = verify_ktk(group, pg, 2)
        assert ok
        z2 = [r for r in report if r["model"] == "Z2"][0]
        assert z2["product"] == 4

    def test_arity_three(self, monoid):
        p = [q for q in projection_map_set(monoid, 3) if q.arity == 3][0]
        ok, report = verify_ktk(monoid, p, 3)
        assert ok
        assert all(r["bijections"] for r in report)

    def test_arity_one_trivially_bijective(self, trivial):
        el = trivial.sort("el")
        obj = TheoryObject.of(el)
        p = ProjectionMap(obj, (projection(obj, [1]),))
        ok, _ = verify_ktk(trivial, p, 3)
        assert ok


def test_injectivity_arity_one_is_identity(trivial):
    """With a single factor the glued pairs force u = v, so the step
    changes nothing."""
    el = trivial.sort("el")
    obj = TheoryObject.of(el)
    p = ProjectionMap(obj, (projection(obj, [1]),))
    X = as_functor(trivial_model(trivial, 2), 2)
    res = injectivity_step(X, p)
    assert res.sizes == {o.key(): len(X.value(o)) for o in X.objects()}


def _brute_force_nats(X, Y):
    """All natural families by full product enumeration; small inputs
    only.  Independent oracle for the constraint solver."""
    unknowns = [(obj, x) for obj in X.objects() for x in X.value(obj)]
    spaces = [list(Y.value(obj)) for obj, _ in unknowns]
    out = []
    for combo in itertools.product(*spaces):
        nat = dict(zip(unknowns, combo))
        ok = True
        for m, table in X.arrows.items():
            fmap = Y.morphism_map(m)
            for x, ximg in table.items():
                if nat[(m.target, ximg)] != fmap[nat[(m.source, x)]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(nat)
    return out


def test_nat_solver_matches_brute_force(trivial):
    rng = make_rng(55)
    models = models_for(trivial, 2)
    for _ in range(6):
        X = random_trivial_diagram(rng, trivial, "any")
        if sum(len(X.value(o)) for o in X.objects()) > 9:
            continue  # keep the brute-force space tiny
        for alg in models:
            H = AlgebraFunctor(alg, 2)
            assert natural_transformations(X, H) == _brute_force_nats(X, H)


def brute_force_homs(P, alg):
    """The generator tuples, in context order, of every assignment in
    `itertools.product` of the carriers that satisfies each relation,
    checked with `evaluate`."""
    ctx = P.context()
    out = []
    for combo in itertools.product(*[alg.carriers[v.sort] for v in ctx.vars]):
        env = {v.name: e for v, e in zip(ctx.vars, combo)}
        if all(evaluate(alg, lhs, env) == evaluate(alg, rhs, env) for lhs, rhs in P.relations):
            out.append(combo)
    return out


def assert_homs_match_brute_force(P, alg):
    ctx = P.context()
    fast = [tuple(h[v.name] for v in ctx.vars) for h in homs_into(P, alg)]
    assert fast == brute_force_homs(P, alg), (P.to_json(), alg.name)


def test_presentation_homs_match_brute_force(group, monoid, ocat, ring_module):
    for doc in (group, monoid, ocat, ring_module):
        for sort in doc.sorts:
            P = rigidify_presentation(representable_diagram(doc, TheoryObject.of(sort), 2, 2))
            for alg in models_for(doc, 2):
                assert_homs_match_brute_force(P, alg)


def hand_presentations(group, action):
    """One hand-built presentation per kind of relation `homs_into`
    turns into a constraint."""
    G, X = action.sort("G"), action.sort("X")
    g0, g1, g2, g3 = (Var(f"g{i}", group.sorts[0]) for i in range(4))
    mul, inv, e = group.op("mul"), group.op("inv"), group.op("e")

    def pres(doctrine, gens, *relations):
        return AlgebraPresentation(doctrine, gens, tuple(relations))

    gens = {group.sorts[0]: ("g0", "g1", "g2")}
    x0, x1, h0 = Var("x0", X), Var("x1", X), Var("h0", G)
    return {
        "generator=generator": pres(group, gens, (g0, g1)),
        "generator-used-twice": pres(group, gens, (App(mul, (g0, g0)), g1)),
        "bare-generator-on-both-sides": pres(group, gens, (App(mul, (g0, g1)), g0)),
        "compound=compound": pres(group, gens, (App(mul, (g0, g1)), App(mul, (g1, g0)))),
        "nullary": pres(group, gens, (App(e), g2), (App(mul, (g0, App(inv, (g0,)))), App(e))),
        "one-shape-twice": pres(
            group, {group.sorts[0]: ("g0", "g1", "g2", "g3")},
            (App(mul, (g0, g1)), g2), (App(mul, (g2, g3)), g1), (App(inv, (g3,)), g0),
            (App(inv, (g1,)), g3),
        ),
        "two-sorted": pres(
            action, {G: ("h0",), X: ("x0", "x1")},
            (App(action.op("act"), (h0, x0)), x1),
            (App(action.op("act"), (App(action.op("inv"), (h0,)), x1)), x0),
        ),
    }


@pytest.mark.parametrize("kind", [
    "generator=generator", "generator-used-twice", "bare-generator-on-both-sides",
    "compound=compound", "nullary", "one-shape-twice", "two-sorted",
])
def test_hand_built_presentation_homs_match_brute_force(group, action, kind):
    P = hand_presentations(group, action)[kind]
    for alg in models_for(P.doctrine, 3):
        assert_homs_match_brute_force(P, alg)


def test_homs_into_an_algebra_of_another_doctrine(group, monoid, action):
    """Group's presentation into a monoid model used to end in a bare
    KeyError on the sort G, and into a group-action model, whose
    operations share group's names, to return assignments silently."""
    P = rigidify_presentation(representable_diagram(group, TheoryObject.of(group.sorts[0]), 2, 2))
    for other in (monoid, action):
        with pytest.raises(DoctrineMismatch):
            homs_into(P, models_for(other, 2)[-1])


def test_verify_routes_into_models_of_another_doctrine(group, monoid, action):
    X = representable_diagram(group, TheoryObject.of(group.sorts[0]), 2, 2)
    P = rigidify_presentation(X)
    for other in (monoid, action):
        models = models_for(other, 2)[-1:]
        with pytest.raises(DoctrineMismatch):
            verify_universal_property(X, P, models=models)
        with pytest.raises(DoctrineMismatch):
            verify_ktk(group, projection_map_set(group, 2)[0], models=models)


def two_sorted_diagram(rng, doctrine, repeated):
    """A functorial diagram at object bound 2 on a doctrine with sorts a
    and b and nothing else: X(T) = A^i x B^j with |A|, |B| in 1..3, except
    at (a, b), where X(a, b) is a random subset of A x B whose pairs are
    listed once each, or 1-2 times each when `repeated`.  The only
    generating arrow into (a, b) is its identity, so each arrow out of
    (a, b) acts on an element through its pair."""
    a, b = doctrine.sorts
    X = as_functor(trivial_model(doctrine, rng.randint(1, 3), rng.randint(1, 3)), 2)
    AB = TheoryObject.of(a, b)
    cells = []
    for pair in X.value(AB):
        if rng.random() < 0.7:
            cells.extend((*pair, k) for k in range(rng.randint(1, 2) if repeated else 1))
    values = dict(X.values)
    values[AB] = cells
    arrows = {
        m: table if m.source != AB else {
            c: c if m.target == AB else table[c[:2]] for c in cells
        }
        for m, table in X.arrows.items()
    }
    return DiagramOnTruncation(doctrine, 2, 2, values, arrows)


def test_two_sorted_localization_is_the_product_functor():
    """With no operations, every arrow into a size-one object is a
    projection, so localization keeps the size-one values: it is the
    product functor T -> X(T_1) x ... x X(T_n), and its unit, read
    through the result's comparison map, is X's comparison map."""
    doctrine = parse_theory("theory ab\nsorts a, b\nend\n")
    for seed in range(40):
        X = two_sorted_diagram(make_rng(seed), doctrine, repeated=seed % 2 == 1)
        res = localize(X, 8)
        L = res.diagram
        assert check_strictly_local(L)[0]
        for obj in X.objects():
            factors = [TheoryObject.of(s) for s in obj.sorts]
            assert len(L.value(obj)) == math.prod(len(X.value(f)) for f in factors)
            if obj.size == 1:
                assert set(res.unit[obj].values()) == set(L.value(obj))
            into_L, into_X = L.comparison(obj), X.comparison(obj)
            for x in X.value(obj):
                assert into_L[res.unit[obj][x]] == tuple(
                    res.unit[f][y] for f, y in zip(factors, into_X[x]))
        ok, report = verify_universal_property(X, rigidify_presentation(X), 2)
        assert ok and [r["model"] for r in report] == ["set1x1", "set1x2", "set2x1", "set2x2"]
