import hashlib
import itertools
import json
import random

import pytest

from msat.catalog import cyclic_group
from msat.errors import InvalidParameter
from msat.fuzz import make_rng, product_simplicial_diagram, random_sset
from msat.signature import normalize, print_term, substitute
from msat.simplicial import (
    SimplicialAlgebra,
    SimplicialDiagram,
    TruncSimplicialSet,
    _dense_smith_normal_form,
    check_strict,
    classifying_simplicial_algebra,
    constant_simplicial_algebra,
    degreewise_free,
    disjoint_union,
    homology_invariants,
    homotopy_probe,
    identity_problems,
    lifted_maps,
    nerve_of_preorder,
    smith_normal_form,
    standard,
)
from msat.theory_cat import TheoryObject

from oracles import bfs_component_count


class TestStandard:
    def test_delta1_vertices(self):
        assert len(standard("delta", 1, cap=3).level(0)) == 2

    def test_boundary1_two_points(self):
        b = standard("boundary", 1, cap=3)
        assert len(b.level(0)) == 2
        assert b.nondegenerate(1) == []

    def test_horn21_two_edges(self):
        h = standard("horn", 2, 1, cap=3)
        assert len(h.nondegenerate(1)) == 2

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            standard("horn", 0, 0)
        with pytest.raises(InvalidParameter):
            standard("delta", -1)
        with pytest.raises(InvalidParameter):
            standard("mystery", 1)

    def test_identities_validated(self):
        d = standard("delta", 2, cap=3)
        assert identity_problems(d.cap, d.levels, d.faces, d.degeneracies) == []
        broken_faces = {k: dict(v) for k, v in d.faces.items()}
        x = d.level(2)[0]
        y = d.level(2)[-1]
        broken_faces[(2, 0)][x] = d.faces[(2, 0)][y]
        with pytest.raises(InvalidParameter):
            TruncSimplicialSet(3, d.levels, broken_faces, d.degeneracies)

    @pytest.mark.parametrize("n", range(4))
    def test_nerve_of_total_order_is_delta(self, n):
        nerve = nerve_of_preorder(range(n + 1), lambda a, b: a <= b)
        delta = standard("delta", n)
        assert nerve.levels == delta.levels
        assert nerve.faces == delta.faces
        assert nerve.degeneracies == delta.degeneracies


class TestPi0AndHomology:
    def test_pi0_matches_bfs(self):
        for builder in (
            lambda: standard("delta", 1, cap=2),
            lambda: standard("boundary", 1, cap=2),
            lambda: disjoint_union(standard("delta", 0, cap=2), standard("delta", 1, cap=2)),
            lambda: nerve_of_preorder(
                range(3), lambda a, b: a == b or (a, b) == (0, 1), cap=2
            ),
        ):
            X = builder()
            vertices = list(X.level(0))
            edges = [
                (X.faces[(1, 0)][e], X.faces[(1, 1)][e]) for e in X.level(1)
            ]
            assert len(X.pi0_classes()) == bfs_component_count(vertices, edges)

    def test_smith_normal_form_known(self):
        assert smith_normal_form([[2, 4], [0, 6]]) == [2, 6]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[0]]) == []
        # divisibility ordering
        assert smith_normal_form([[6, 0], [0, 4]]) == [2, 12]

    def test_smith_normal_form_matches_dense_on_random(self):
        """The unit pivots taken first change no invariant factor."""
        rng = random.Random(5)
        for _ in range(300):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            entries = rng.choice([(-1, 0, 1), (-2, -1, 0, 1, 2, 3), (0, 0, 0, 1, -1, 2, 6, -4)])
            mat = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(mat) == _dense_smith_normal_form(mat), mat

    @pytest.mark.parametrize("seed", range(40))
    def test_smith_normal_form_matches_dense_on_boundaries(self, seed):
        for mat in random_sset(make_rng(seed), 3).numbering.boundary_matrices()[1:]:
            assert smith_normal_form(mat) == _dense_smith_normal_form(mat)

    def test_point_homology(self):
        d = standard("delta", 0, cap=3)
        assert homology_invariants(d, 3) == [(1, ()), (0, ()), (0, ())]

    def test_circle_homology(self):
        c = standard("boundary", 2, cap=3)
        assert homology_invariants(c, 3) == [(1, ()), (1, ()), (0, ())]

    def test_two_points(self):
        assert homology_invariants(standard("boundary", 1, cap=2), 2) == [(2, ()), (0, ())]

    def test_horn_contractible_invariants(self):
        h = standard("horn", 2, 1, cap=3)
        assert homology_invariants(h, 3) == [(1, ()), (0, ()), (0, ())]

    def test_classifying_space_torsion(self, group):
        """Two-torsion in degree one for the cyclic group of order two."""
        z2 = cyclic_group(group, 2)
        sa = classifying_simplicial_algebra(z2, 3)
        G = group.sort("G")
        ss = TruncSimplicialSet(3, {n: sa.levels[n].carriers[G] for n in range(4)},
                                *lifted_maps(3, lambda n, comp: comp[G], sa))
        assert homology_invariants(ss, 3) == [(1, ()), (0, (2,)), (0, ())]


def _circle_everywhere(trivial, at_terminal):
    """The diagram that is the boundary of the 2-simplex at both
    nonterminal objects, every arrow between them acting as the
    identity, and a point (or that boundary too) at the terminal
    object."""
    from msat.diagram import DiagramOnTruncation
    from msat.theory_cat import TERMINAL, generating_morphisms

    S = standard("boundary", 2, cap=3)
    point = TruncSimplicialSet(3, {n: ("pt",) for n in range(4)},
                               *lifted_maps(3, lambda n, t: {"pt": "pt"}, S))
    el = trivial.sort("el")
    of = {TERMINAL: S if at_terminal else point,
          TheoryObject.of(el): S, TheoryObject.of(el, el): S}
    levels = []
    for n in range(4):
        values = {obj: X.level(n) for obj, X in of.items()}
        arrows = {m: ({x: "pt" for x in values[m.source]}
                      if m.target == TERMINAL and not at_terminal
                      else {x: x for x in values[m.source]})
                  for m in generating_morphisms(trivial, 2)}
        levels.append(DiagramOnTruncation(trivial, 2, 2, values, arrows))
    return SimplicialDiagram(trivial, 3, levels, *lifted_maps(
        3, lambda n, *tables: dict(zip(of, tables)), *of.values()))


class TestSimplicialDiagrams:
    def test_constant_algebra_strict(self, group):
        sd = constant_simplicial_algebra(cyclic_group(group, 2), 3).as_diagram(2, 2)
        ok, failures = check_strict(sd)
        assert ok, failures
        assert homotopy_probe(sd).passed

    def test_classifying_algebra_strict(self, group):
        sd = classifying_simplicial_algebra(cyclic_group(group, 2), 2).as_diagram(2, 2)
        ok, _ = check_strict(sd)
        assert ok
        res = homotopy_probe(sd)
        assert res.passed and res.terminal_flag is None

    def test_inflated_level_fails_strict_with_position(self, trivial):
        SD = product_simplicial_diagram(trivial, standard("delta", 1, cap=2), inflate=True)
        ok, failures = check_strict(SD)
        assert not ok
        assert failures[0]["object"] == "el,el"
        assert "level" in failures[0]

    def test_cap_zero_matches_product_preservation(self, trivial):
        from msat.models import check_product_preservation

        SD = product_simplicial_diagram(trivial, standard("delta", 0, cap=0))
        ok, _ = check_strict(SD)
        ok0, _ = check_product_preservation(SD.levels[0])
        assert ok == ok0 is True

    def test_probe_refutes_pi0_mismatch(self, trivial):
        SD = product_simplicial_diagram(trivial, standard("boundary", 1, cap=3), inflate=True)
        res = homotopy_probe(SD)
        assert not res.passed
        assert res.refuted_at[0] == "el,el"
        assert res.refuted_at[1] == "pi0"
        # independent count: pi0(S^2 product) = 4 vs inflated 4+2
        assert res.refuted_at[2] == 6 and res.refuted_at[3] == 4

    @pytest.mark.parametrize("at_terminal", [False, True])
    def test_probe_refutes_on_homology(self, trivial, at_terminal):
        """A circle at el has one 1-cycle and its square two, with one
        component each: the probe refutes at H1.  A circle at the
        terminal object also raises the terminal flag."""
        result = homotopy_probe(_circle_everywhere(trivial, at_terminal))
        assert not result.passed
        assert result.refuted_at == ("el,el", "H1", (1, ()), (2, ()))
        if at_terminal:
            assert result.terminal_flag == (
                "value at the terminal object is not point-like: "
                "{'pi0': 1, 'homology': [(1, ()), (1, ()), (0, ())]}")
        else:
            assert result.terminal_flag is None

    def test_tables_in_reverse_order_number_alike(self, trivial):
        """Structure tables whose keys run against their level's order
        number like the tables in order, at every object, the objects
        after the first included."""
        SD = product_simplicial_diagram(trivial, standard("boundary", 2, cap=3))
        faces, degens = ({k: {obj: dict(reversed(t.items())) for obj, t in v.items()}
                          for k, v in maps.items()} for maps in (SD.faces, SD.degeneracies))
        reverse = SimplicialDiagram(trivial, 3, SD.levels, faces, degens)
        for obj in SD.objects():
            N, R = SD.object_numbering(obj), reverse.object_numbering(obj)
            assert (R.faces, R.degeneracies) == (N.faces, N.degeneracies)
        assert homotopy_probe(reverse).details == homotopy_probe(SD).details

    def test_probe_accepts_contractible_padding(self, trivial):
        """Replacing a point by an interval keeps the probe quiet: the
        interval has point homology."""
        interval = standard("delta", 1, cap=3)
        SD = product_simplicial_diagram(trivial, interval)
        assert homotopy_probe(SD).passed

    def test_probe_finishes_on_the_codiscrete_nerve(self, trivial):
        """Seed 40 is the nerve of the codiscrete preorder on three
        points (81 simplices at level 3, 6,561 at the square object),
        whose 576 x 4608 boundary matrix the dense reduction alone did
        not finish in minutes.  It is contractible, and so is its
        square."""
        SD = product_simplicial_diagram(trivial, random_sset(make_rng(40)))
        assert len(SD.levels[3].value(TheoryObject.of(trivial.sort("el"), trivial.sort("el")))) == 6561
        result = homotopy_probe(SD)
        assert result.passed and result.terminal_flag is None
        point = [(1, ()), (0, ()), (0, ())]
        assert result.details == [{"object": "el,el", "value": {"pi0": 1, "homology": point},
                                   "product": {"pi0": 1, "homology": point}}]

    def test_degeneracy_naturality_checked(self, trivial):
        # a circle: vertex v, degenerate edge e = s_0 v and a loop l
        circle = TruncSimplicialSet(1, {0: ("v",), 1: ("e", "l")},
                                    {(1, 0): {"e": "v", "l": "v"}, (1, 1): {"e": "v", "l": "v"}},
                                    {(0, 0): {"v": "e"}})
        SD = product_simplicial_diagram(trivial, circle)
        degens = {k: dict(v) for k, v in SD.degeneracies.items()}
        # still a simplicial set at el, but not natural along the diagonal
        degens[(0, 0)][TheoryObject.of(trivial.sort("el"))] = {"v": "l"}
        with pytest.raises(InvalidParameter, match="degeneracy s_0 at level 0 not natural"):
            SimplicialDiagram(trivial, 1, SD.levels, SD.faces, degens)

    def test_levels_must_fit_the_cap_and_share_objects(self, trivial, group):
        from msat.diagram import DiagramOnTruncation

        L0, L1 = (DiagramOnTruncation(trivial, bound, 2, {}, {}) for bound in (2, 1))
        with pytest.raises(InvalidParameter, match="level diagrams disagree on their objects"):
            SimplicialDiagram(trivial, 1, [L0, L1], {}, {})
        sa = constant_simplicial_algebra(cyclic_group(group, 2), 2)
        with pytest.raises(InvalidParameter, match="need one algebra per level up to the cap"):
            SimplicialAlgebra(group, 2, sa.levels[:2], sa.faces, sa.degeneracies)

    def test_strict_implies_probe_passes_fuzzed(self, trivial):
        rng = make_rng(11)
        for _ in range(25):
            S = random_sset(rng, 3)
            SD = product_simplicial_diagram(trivial, S)
            ok, _ = check_strict(SD)
            assert ok
            assert homotopy_probe(SD).passed

    @pytest.mark.parametrize("corrupt, message", [
        (lambda faces: faces.pop((2, 1)), "bad simplicial algebra: face d_1 at level 2 missing"),
        (lambda faces: faces.__setitem__((1, 0), {}),
         "bad simplicial algebra: face d_0 at level 1 has no table at G"),
        (lambda faces: faces.__setitem__((7, 0), faces[(1, 0)]),
         "bad simplicial algebra: face d key (7, 0) is not an index below the cap 3"),
        (lambda faces: faces.__setitem__((1, 0), {next(iter(faces[(1, 0)])): {0: 0}}),
         "not a simplicial set: face d_0 at level 1 missing or partial"),
    ], ids=["missing-map", "missing-table", "extra-key", "partial-table"])
    def test_malformed_simplicial_algebra_is_a_typed_error(self, group, corrupt, message):
        sa = constant_simplicial_algebra(cyclic_group(group, 2), 3)
        faces = dict(sa.faces)
        corrupt(faces)
        with pytest.raises(InvalidParameter) as err:
            SimplicialAlgebra(group, 3, sa.levels, faces, sa.degeneracies)
        assert str(err.value) == message


class TestDegreewiseFree:
    def test_delta0_levels_constant(self, monoid):
        m = monoid.sort("m")
        free = degreewise_free(monoid, m, standard("delta", 0, cap=3))
        Tm = TheoryObject.of(m)
        sizes = [len(free.enumerate_value(k, Tm, 3)) for k in range(4)]
        assert sizes == [4, 4, 4, 4]  # e, y, y^2, y^3 at every level

    def test_matches_free_algebra_levelwise(self, monoid):
        from msat.models import free_algebra

        m = monoid.sort("m")
        Y = standard("delta", 1, cap=2)
        free = degreewise_free(monoid, m, Y)
        Tm = TheoryObject.of(m)
        for k in range(3):
            P = free_algebra(monoid, {m: [v.name for v in free.context(k).vars]})
            direct = {print_term(t) for t in P.enumerate(m, 2)}
            lazy = {print_term(t[0]) for t in free.enumerate_value(k, Tm, 2)}
            assert direct == lazy

    def test_identities_on_fragments(self, monoid):
        m = monoid.sort("m")
        for Y in (standard("delta", 1, cap=3), standard("boundary", 2, cap=3)):
            free = degreewise_free(monoid, m, Y)
            assert free.check_identities(2) == []

    def test_identities_catch_a_bad_degeneracy(self, monoid):
        """s_0 on vertices sending (a,) to (1-a, a) keeps d_0 s_0 = id
        but breaks d_1 s_0 = id; the check runs every identity."""
        Y = nerve_of_preorder([0, 1], lambda a, b: True, cap=2)
        Y.degeneracies[(0, 0)] = {(a,): (1 - a, a) for a in (0, 1)}
        problems = degreewise_free(monoid, monoid.sort("m"), Y).check_identities(1)
        assert any(p.startswith("d_1 s_0 relation fails at level 0") for p in problems)
        assert not any(p.startswith("d_0 s_0") for p in problems)

    def test_face_acts_on_generators(self, monoid):
        m = monoid.sort("m")
        Y = standard("delta", 1, cap=2)
        free = degreewise_free(monoid, m, Y)
        g = free.generator(1, (0, 1))
        assert free.face(1, 0, g) == free.generator(0, (1,))
        assert free.face(1, 1, g) == free.generator(0, (0,))

    def test_coend_quotient_oracle(self, monoid):
        """Brute-force quotient of the sum over n <= 2 of
        Hom(T_m^n, T_m) x Y^n by the exchange relations, compared with
        the normal-form representation."""
        m = monoid.sort("m")
        Y = standard("delta", 1, cap=1)
        free = degreewise_free(monoid, m, Y)
        k = 1
        Yk = list(Y.level(k))
        bound = 2
        Tm = TheoryObject.of(m)
        pairs = []
        homsets = {}
        for n in (0, 1, 2):
            src = TheoryObject(tuple([m] * n))
            from msat.theory_cat import hom_enumerate

            homsets[n] = hom_enumerate(src, Tm, monoid, bound)
            for phi in homsets[n]:
                for ys in itertools.product(Yk, repeat=n):
                    pairs.append((n, phi, ys))
        parent = {i: i for i in range(len(pairs))}
        index = {(n, phi.terms, ys): i for i, (n, phi, ys) in enumerate(pairs)}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        from msat.theory_cat import compose, variable_morphisms

        for n_src in (0, 1, 2):
            for n_tgt in (0, 1, 2):
                src = TheoryObject(tuple([m] * n_src))
                tgt = TheoryObject(tuple([m] * n_tgt))
                for theta in variable_morphisms(src, tgt):
                    slot_of = [int(t.name[1:]) for t in theta.terms]
                    for phi in homsets[n_tgt]:
                        phi_theta = compose(monoid, phi, theta)
                        if phi_theta not in homsets[n_src]:
                            continue
                        for ys in itertools.product(Yk, repeat=n_src):
                            lhs = index[(n_src, phi_theta.terms, ys)]
                            ys_pushed = tuple(ys[j - 1] for j in slot_of)
                            rhs = index[(n_tgt, phi.terms, ys_pushed)]
                            union(lhs, rhs)
        classes = {}
        for i, (n, phi, ys) in enumerate(pairs):
            classes.setdefault(find(i), []).append((n, phi, ys))
        # canonical map: substitute the generators into the morphism term
        def to_term(n, phi, ys):
            asg = {
                f"v{j+1}": free.generator(k, ys[j]) for j in range(n)
            }
            return normalize(substitute(phi.terms[0], asg), monoid)

        class_terms = []
        for members in classes.values():
            terms = {print_term(to_term(*mem)) for mem in members}
            assert len(terms) == 1, terms  # classes map to single normal forms
            class_terms.append(terms.pop())
        assert len(set(class_terms)) == len(class_terms)
        # and the classes are exactly the bounded word enumeration that
        # the pairs can reach (words of length <= 2 over one generator)
        expected = {print_term(t[0]) for t in free.enumerate_value(k, Tm, bound)}
        assert set(class_terms) == expected


def _messages_digest(messages) -> str:
    return hashlib.sha256(json.dumps(messages).encode()).hexdigest()


def _pick(seq, k):
    return seq[k % len(seq)]


def _sset_mutant(kind):
    """The `identity_problems` of standard("delta", 2) with one
    corrupted table or level."""
    d = standard("delta", 2, cap=3)
    faces = {k: dict(v) for k, v in d.faces.items()}
    degens = {k: dict(v) for k, v in d.degeneracies.items()}
    levels = dict(d.levels)
    x = d.level(2)[3]
    if kind == "changed-face":
        faces[(2, 0)][x] = faces[(2, 0)][d.level(2)[-1]]
    elif kind == "changed-degeneracy":
        degens[(1, 1)][d.level(1)[2]] = d.level(2)[0]
    elif kind == "dropped-entry":
        del faces[(3, 2)][d.level(3)[5]]
    elif kind == "extra-key":
        faces[(2, 1)][("stray",)] = d.level(1)[0]
    elif kind == "missing-table":
        del degens[(2, 0)]
    elif kind == "outside-level":
        faces[(1, 0)][d.level(1)[1]] = ("nowhere",)
        degens[(0, 0)][d.level(0)[0]] = ("nowhere", "too")
    elif kind == "repeated-element":
        levels[2] = levels[2] + (x, d.level(2)[0])
        faces[(2, 0)][x] = faces[(2, 0)][d.level(2)[-1]]
    return identity_problems(3, levels, faces, degens)


SSET_MUTANTS = ("changed-face", "changed-degeneracy", "dropped-entry", "extra-key",
                "missing-table", "outside-level", "repeated-element")


def _diagram_mutant(trivial, kind):
    """A product simplicial diagram with one corrupted structure table,
    level arrow or level value; the checks are rerun by hand."""
    SD = product_simplicial_diagram(trivial, standard("boundary", 2, cap=3), inflate=True)
    el = trivial.sort("el")
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    vals = {n: SD.levels[n].values for n in range(4)}
    if kind == "changed-face":
        SD.faces[(2, 1)][T2][_pick(vals[2][T2], 7)] = _pick(vals[1][T2], 2)
    elif kind == "changed-degeneracy":
        SD.degeneracies[(1, 0)][T1][_pick(vals[1][T1], 1)] = _pick(vals[2][T1], 4)
    elif kind == "dropped-entry":
        del SD.faces[(3, 1)][T2][_pick(vals[3][T2], 11)]
    elif kind == "outside-level":
        SD.faces[(2, 0)][T2][_pick(vals[2][T2], 5)] = ("far", "away")
        SD.degeneracies[(0, 0)][T1][_pick(vals[0][T1], 0)] = ("gone",)
    elif kind == "non-natural-arrow":
        level = SD.levels[2]
        m = next(m for m in level.arrows if m.source == T2 and m.target == T1)
        x = _pick(vals[2][T2], 3)
        level.arrows[m][x] = next(y for y in vals[2][T1] if y != level.arrows[m][x])
    elif kind == "partial-arrow":
        level = SD.levels[1]
        m = next(m for m in level.arrows if m.source == T2 and m.target == T2
                 and any(a != b for a, b in level.arrows[m].items()))
        del level.arrows[m][_pick(vals[1][T2], 0)]
        SD.faces[(2, 2)][T2][_pick(vals[2][T2], 9)] = _pick(vals[1][T2], 6)
    elif kind == "repeated-element":
        SD.levels[1].values[T2] = vals[1][T2] + (vals[1][T2][0],)
        SD.faces[(1, 0)][T2][vals[1][T2][0]] = _pick(vals[0][T2], 3)
    elif kind == "extra-key":
        SD.faces[(2, 1)][T2][("stray", "key")] = _pick(vals[1][T2], 0)
    elif kind == "partial-and-changed":
        del SD.degeneracies[(1, 1)][T1][_pick(vals[1][T1], 2)]
        SD.faces[(2, 1)][T2][_pick(vals[2][T2], 7)] = _pick(vals[1][T2], 2)
    return SD


DIAGRAM_MUTANTS = ("changed-face", "changed-degeneracy", "dropped-entry", "outside-level",
                   "non-natural-arrow", "partial-arrow", "repeated-element")


# (case, mutant) -> (count, SHA-256 of the JSON message list), recorded
# before the checks moved to element positions
PROBLEM_DIGESTS = {
    ("sset", "changed-face"): (9, "a8d2e8a016ab4536d6362bee2f6c5ed2acce7b6375e91ee38ae86e08a3d2b6ba"),
    ("sset", "changed-degeneracy"): (9, "ead29b335ee6ac1ddd5ba7b810229805ebbc06e64b05e5ae44276c92b1948099"),
    ("sset", "dropped-entry"): (1, "59426c8d892bbb6aa2cb3b91c68864b9296403fe1c4d56bcdc1ea626529c33ab"),
    ("sset", "extra-key"): (1, "bfb8d4b8609bec98f20283e12fd25a55e703d4e53fdf478f6bb5b795994b925f"),
    ("sset", "missing-table"): (1, "fe0919f15a36a6d90e165405cf43ab9bac00c91de6a2a1099b35d2b5cf0f3729"),
    ("sset", "outside-level"): (2, "22025af9ccecdab08546e47e75c222b96792009391774fb5a07eb6fc741b2a47"),
    ("sset", "repeated-element"): (13, "e2f3b290724e43bf07ad3f8771f3a793bc02aac4cb41e709e723754779855fdf"),
    ("diagram", "changed-face"): (5, "7e47178f8243f24434c91fedad23b10eab0c1a40d0877556cd17fc8ed0924fa8"),
    ("diagram", "changed-degeneracy"): (16, "aac0222d8f34fbe77d21f594dbc953f7ede3352985e9eb1217210ded62512fd3"),
    ("diagram", "dropped-entry"): (1, "1c6b3c2ba8496955dfdb1279bbbc4950a16c20a05a896eea71ef4a4e13965cfb"),
    ("diagram", "outside-level"): (11, "af0054c92a36466078f118c50b78261a68440fda59e29448bcc844d83514ad26"),
    ("diagram", "non-natural-arrow"): (13, "fac378345ac8e7488ee18fdd9404d12c78685f6994e99157fde3547dd4243684"),
    ("diagram", "partial-arrow"): (5, "e7506c571a54781e949ac2b536e388f555a755cad8343c2250bd45e6631c3800"),
    ("diagram", "repeated-element"): (18, "4237ad53e0f00cc19fac445bf4f307a78a959cf45eafb2054283a390a47c628c"),
}


# mutants whose tables do not number at one object only; (count, digest)
# recorded while such tables still fell back to element-wise checks
MIXED_MUTANTS = ("extra-key", "partial-and-changed")
MIXED_DIGESTS = {
    "extra-key": (1, "bae720c668c0738af715fb358546ed172447cb40a14e5468331ce7aa8cd3da64"),
    "partial-and-changed": (6, "3df12c1ae04d12c928ea94581b6eb7fd255c3753fdbd11742abc56da2c91f228"),
}
EMPTY_LEVEL_MESSAGE = ("bad simplicial diagram: at (): not a simplicial set: "
                       "face d_0 at level 3 leaves the level set")
SECOND_SORT_MESSAGE = "not a simplicial set: d_0 d_1 != d_0 d_0 at level 2 on 0"


class TestProblemMessages:
    """The identity and structure checks report every problem, in
    order, with the same text, on valid inputs and on mutants."""

    @pytest.mark.parametrize("kind", SSET_MUTANTS)
    def test_identity_problems_are_pinned(self, kind):
        messages = _sset_mutant(kind)
        assert (len(messages), _messages_digest(messages)) == PROBLEM_DIGESTS["sset", kind]

    @pytest.mark.parametrize("kind", DIAGRAM_MUTANTS)
    def test_structure_problems_are_pinned(self, trivial, kind):
        messages = _diagram_mutant(trivial, kind).structure_problems()
        assert (len(messages), _messages_digest(messages)) == PROBLEM_DIGESTS["diagram", kind]

    def test_valid_inputs_have_no_problems(self, trivial):
        for seed in range(12):
            S = random_sset(make_rng(seed), 3)
            if len(S.level(3)) > 30:
                continue
            assert identity_problems(S.cap, S.levels, S.faces, S.degeneracies) == []
            for inflate in (False, True):
                SD = product_simplicial_diagram(trivial, S, inflate=inflate)
                assert SD.structure_problems() == []

    @pytest.mark.parametrize("kind", MIXED_MUTANTS)
    def test_mixed_mutant_problems_are_pinned(self, trivial, kind):
        messages = _diagram_mutant(trivial, kind).structure_problems()
        assert (len(messages), _messages_digest(messages)) == MIXED_DIGESTS[kind]

    def test_a_level_arrow_off_its_level_is_a_problem(self, trivial):
        """The entry is named, and the six structure maps into it (every
        face of (0, 0, 0), d_2 of (0, 0, 1) and of (0, 0, 2), and s_0 of
        (0,)) are not natural for its arrow."""
        SD = _diagram_mutant(trivial, "none")
        T1 = TheoryObject.of(trivial.sort("el"))
        m = next(m for m in SD.levels[1].arrows if m.source == T1)
        SD.levels[1].arrows[m][_pick(SD.levels[1].value(T1), 0)] = ("far", "away")
        problems = SD.structure_problems()
        assert problems[0] == f"level 1: arrow {m}: image ('far', 'away') not in target values"
        assert len(problems) == 7
        assert all(f"not natural for {m} at" in problem for problem in problems[1:])

    def test_level_empty_at_every_object_is_a_typed_error(self, trivial):
        """Level 2 holds no element at any object while the level-3 faces
        and level-1 degeneracies still point into it."""
        from msat.diagram import DiagramOnTruncation

        SD = product_simplicial_diagram(trivial, standard("delta", 1, cap=3))
        levels = list(SD.levels)
        levels[2] = DiagramOnTruncation(trivial, 2, 2, {}, {m: {} for m in levels[2].arrows})
        faces, degens = ({k: {o: ({} if k[0] == 2 else t) for o, t in v.items()}
                          for k, v in maps.items()} for maps in (SD.faces, SD.degeneracies))
        with pytest.raises(InvalidParameter) as err:
            SimplicialDiagram(trivial, 3, levels, faces, degens)
        assert str(err.value) == EMPTY_LEVEL_MESSAGE

    def test_second_sort_identity_failure_is_reported(self, ring_module):
        from msat.catalog import ring_module_model

        sa = constant_simplicial_algebra(ring_module_model(ring_module, 2), 3)
        M = ring_module.sorts[1]
        faces = {k: {s: dict(t) for s, t in v.items()} for k, v in sa.faces.items()}
        a, b = sa.levels[2].carriers[M][:2]
        faces[(2, 0)][M][a] = b
        with pytest.raises(InvalidParameter) as err:
            SimplicialAlgebra(ring_module, 3, sa.levels, faces, sa.degeneracies)
        assert str(err.value) == SECOND_SORT_MESSAGE


def test_negative_dimension_cap_is_a_typed_error(trivial, group):
    with pytest.raises(InvalidParameter, match="dimension cap must be >= 0"):
        SimplicialDiagram(trivial, -1, [], {}, {})
    with pytest.raises(InvalidParameter, match="dimension cap must be >= 0"):
        SimplicialAlgebra(group, -1, [], {}, {})


def test_negative_cap_of_a_simplicial_set_is_a_typed_error():
    for build in (lambda: TruncSimplicialSet(-1, {}, {}, {}),
                  lambda: standard("delta", 1, cap=-1),
                  lambda: nerve_of_preorder(range(2), lambda a, b: a <= b, cap=-1)):
        with pytest.raises(InvalidParameter, match="dimension cap must be >= 0"):
            build()


def test_first_missing_table_ends_the_list():
    """A table that leaves its level is listed and the check goes on; the
    first missing or partial table ends the list."""
    d = standard("delta", 1, cap=2)
    faces = {k: dict(v) for k, v in d.faces.items()}
    degens = {k: dict(v) for k, v in d.degeneracies.items()}
    faces[(1, 1)][d.level(1)[0]] = ("nowhere",)
    del faces[(2, 0)][d.level(2)[0]]
    degens[(0, 0)][d.level(0)[0]] = ("gone",)
    assert identity_problems(2, d.levels, faces, degens) == [
        "face d_1 at level 1 leaves the level set",
        "face d_0 at level 2 missing or partial",
    ]
