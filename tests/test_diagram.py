"""The composition closure over the doctrine's memoized composites and
term-level composition in representable diagrams, against the naive
oracles in `oracles.py`."""

import itertools
import json
import random

import pytest

import msat.diagram as diagram
import msat.theory_cat as theory_cat
from msat.catalog import action_model, cyclic_group, models_for, trivial_model
from msat.errors import NotFunctorial
from msat.fuzz import (
    make_rng,
    product_simplicial_diagram,
    random_sset,
    random_trivial_diagram,
    twisted_algebra_diagram,
)
from msat.models import as_functor
from msat.search import UnionFind
from msat.signature import Engine, Var
from msat.theory_cat import (
    TERMINAL,
    TheoryMorphism,
    TheoryObject,
    generating_morphisms,
    objects_up_to,
    projection,
)

from oracles import naive_arrow_closure, representable_by_compose

# conftest fixtures holding the eight built-in doctrines
DOCTRINES = ["trivial", "monoid", "group", "action", "ring_module", "operad3", "operad_sym",
             "ocat"]


def assert_same_closure(X):
    closure, conflicts = X.arrow_closure()
    want, want_conflicts = naive_arrow_closure(X)
    assert list(closure) == list(want)
    for m, table in closure.items():
        assert list(table.items()) == list(want[m].items()), m
    assert conflicts == list(dict.fromkeys(want_conflicts))


@pytest.mark.parametrize("flavor", ["any", "broken", "nonlocal"])
def test_closure_matches_naive_on_fuzzed(trivial, flavor):
    for seed in range(100):
        assert_same_closure(random_trivial_diagram(make_rng(seed), trivial, flavor))


def random_partial_diagram(rng, doctrine):
    """Up to four values per object and a random partial table on every
    generating morphism.  Tables here keep growing after their pairs
    were first evaluated, so a pair's table must be joined again; the
    fuzzed and catalog diagrams never need that."""
    values = {
        obj: tuple(f"{obj.key()}#{i}" for i in range(rng.randint(1, 4)))
        for obj in objects_up_to(doctrine, 2)
    }
    arrows = {
        m: {x: rng.choice(values[m.target]) for x in values[m.source] if rng.random() < 0.4}
        for m in generating_morphisms(doctrine, 2)
    }
    return diagram.DiagramOnTruncation(doctrine, 2, rng.choice((1, 2)), values, arrows)


@pytest.mark.parametrize("name", ["trivial", "monoid", "action"])
def test_closure_matches_naive_on_partial_tables(request, name):
    d = request.getfixturevalue(name)
    for seed in range(60):
        assert_same_closure(random_partial_diagram(random.Random(seed), d))


@pytest.mark.parametrize("name", DOCTRINES)
def test_closure_matches_naive_on_algebras(request, name):
    d = request.getfixturevalue(name)
    alg = models_for(d, 3)[0]
    assert_same_closure(as_functor(alg, 2))
    assert_same_closure(twisted_algebra_diagram(make_rng(0), alg, 2, 2, duplicates=1))


@pytest.mark.parametrize("name", ["trivial", "monoid", "action"])
def test_closure_on_warm_memo_matches_naive(fresh_doctrine, name):
    d = fresh_doctrine(name)
    for seed in range(20):
        # the second diagram is the same one, closed over the composites
        # the first closure left in the doctrine's memo
        for _ in range(2):
            assert_same_closure(random_partial_diagram(random.Random(seed), d))
    assert any(key[0] == "composites" for key in d.memo)


def test_each_pair_composed_once(fresh_doctrine, monkeypatch):
    # a fresh doctrine: a warm memo would compose no pair at all
    ring_module = fresh_doctrine("ring_module")
    X = as_functor(models_for(ring_module, 3)[0], 2)
    pairs = []
    compose = diagram.compose

    def counting(doctrine, g, f):
        pairs.append((g, f))
        return compose(doctrine, g, f)

    monkeypatch.setattr(diagram, "compose", counting)
    _, conflicts = X.arrow_closure()
    assert conflicts == []
    assert pairs and len(set(pairs)) == len(pairs)


def test_closure_joins_a_pair_again_only_after_a_change(fresh_doctrine, monkeypatch):
    """Semi-naive evaluation: each join of a pair's position tables has
    a side that is new to the pair or grew since the pair's last join.
    The plain fixpoint visits 7,292 pairs on this functor."""
    ring_module = fresh_doctrine("ring_module")
    X = as_functor(models_for(ring_module, 3)[0], 2)
    last = {}  # (outer table, inner table) -> their entries at the last join
    join = diagram._join

    def counting(fimg, gimg):
        key, seen = (id(fimg), id(gimg)), (tuple(fimg), tuple(gimg))
        assert last.get(key) != seen
        last[key] = seen
        joins.append(key)
        return join(fimg, gimg)

    joins = []
    monkeypatch.setattr(diagram, "_join", counting)
    _, conflicts = X.arrow_closure()
    assert conflicts == []
    assert 0 < len(joins) < 7292


def test_broken_diagram_lists_each_conflict_once(trivial):
    X = random_trivial_diagram(make_rng(0), trivial, "broken")
    _, naive = naive_arrow_closure(X)
    conflicts = X.check_functorial()
    assert len(naive) > len(set(naive))
    assert len(conflicts) == len(set(conflicts)) == 3
    assert conflicts[0] == naive[0]


@pytest.mark.parametrize("name", DOCTRINES)
def test_representable_matches_composites(request, fresh_doctrine, name):
    warm = request.getfixturevalue(name)
    for d in (warm, fresh_doctrine(name)):
        for sort in d.sorts:
            rep = TheoryObject.of(sort)
            X = diagram.representable_diagram(d, rep, 2, 2)
            assert_representable_is(X, *representable_by_compose(d, rep, 2, 2))
            assert diagram.representable_diagram(d, rep, 2, 2) is X


def assert_representable_is(X, values, arrows):
    """X against `representable_by_compose`'s values and tables, key
    order included."""
    # the elements are morphisms; the oracle's are their terms
    terms = {m: m.terms for ms in X.values.values() for m in ms}
    assert {obj: tuple(map(terms.get, ms)) for obj, ms in X.values.items()} == values
    assert list(X.arrows) == list(arrows)
    for m, table in arrows.items():
        got = [(terms[x], terms[y]) for x, y in X.arrows[m].items()]
        assert got == list(table.items()), m


# (representable size, object bound) of the product representables that
# `verify_ktk` and the surjectivity step build, and of larger truncations
PRODUCT_SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2)]


def product_representables(doctrine, size):
    sorts = sorted(doctrine.sorts, key=lambda s: s.name)
    return [TheoryObject(c) for c in itertools.combinations_with_replacement(sorts, size)]


@pytest.mark.parametrize("size, object_bound", PRODUCT_SHAPES)
@pytest.mark.parametrize("name", ["trivial", "monoid", "group", "action", "ocat"])
def test_product_representable_matches_composites(fresh_doctrine, name, size, object_bound):
    d = fresh_doctrine(name)
    for rep in product_representables(d, size):
        X = diagram.representable_diagram(d, rep, object_bound, 2)
        assert_representable_is(X, *representable_by_compose(d, rep, object_bound, 2))


@pytest.mark.parametrize("name", DOCTRINES)
def test_representable_build_composes_nothing(fresh_doctrine, monkeypatch, name):
    """A representable's tables are read off value positions: building
    one calls no `compose`."""
    def compose(*args):
        raise AssertionError("a representable was built by composing")

    monkeypatch.setattr(theory_cat, "compose", compose)
    monkeypatch.setattr(diagram, "compose", compose)
    d = fresh_doctrine(name)
    for size, object_bound in [(1, 2), (2, 2)]:
        for rep in product_representables(d, size):
            X = diagram.representable_diagram(d, rep, object_bound, 2)
            assert X.arrows


@pytest.mark.parametrize("name", DOCTRINES)
def test_element_key_prints_a_morphism_as_its_terms(fresh_doctrine, name):
    """The JSON text of a representable's element is that of the term
    tuple it stood for when elements were rendered."""
    d = fresh_doctrine(name)
    for sort in d.sorts:
        X = diagram.representable_diagram(d, TheoryObject.of(sort), 2, 2)
        for obj in X.objects():
            printed = {}  # one report's memo gives the same text
            for m in X.value(obj):
                assert isinstance(m, TheoryMorphism)
                assert diagram.element_key(m) == diagram.element_key(m.terms)
                assert diagram.element_key(m, printed) == diagram.element_key(m)


def test_representable_prints_each_slot_value_once(group, monkeypatch):
    """The JSON of a representable prints each distinct (value, sort)
    of its arrows and its elements once: an element reads its slot
    texts from the report's memo."""
    G = group.sorts[0]
    X = diagram.representable_diagram(group, TheoryObject.of(G, G), 2, 2)
    calls = []
    print_term = theory_cat.print_term

    def counting(term):
        calls.append(term)
        return print_term(term)

    monkeypatch.setattr(theory_cat, "print_term", counting)
    diagram.diagram_to_json(X)
    morphisms = set(X.arrows) | {m for obj in X.objects() for m in X.value(obj)}
    slots = {(v, s) for m in morphisms for v, s in zip(m.values, m.target.sorts)}
    assert len(calls) == len(slots)


def test_elements_that_compare_equal_print_apart(trivial):
    """`1`, `True` and `1.0` compare equal but print differently, and
    `1` and `"1"` print the same key text.  The JSON keeps each
    element's own text, and of two keys with one text the later one
    wins."""
    el = trivial.sorts[0]
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    arrows = {}
    for m in generating_morphisms(trivial, 2):
        if m.source is T1 and m.target is TERMINAL:
            arrows[m] = {1: True, "1": True}
        elif m.source is T1 and m.target is T2:
            arrows[m] = {1: 1.0, "1": 2}
        elif m.source is T2 and m.target is T1 and m.values[0].name == "v1":
            arrows[m] = {2: "1", 1.0: 1}
    X = diagram.DiagramOnTruncation(
        trivial, 2, 2, {TERMINAL: (True,), T1: (1, "1"), T2: (1.0, 2)}, arrows)
    assert json.dumps(diagram.diagram_to_json(X)) == (
        '{"object_bound": 2, "term_bound": 2, "values": ['
        '{"object": [], "elements": ["True"]}, '
        '{"object": ["el"], "elements": ["1", "1"]}, '
        '{"object": ["el", "el"], "elements": ["1.0", "2"]}], "arrows": ['
        '{"source": ["el"], "target": [], "terms": [], "map": {"1": "True"}}, '
        '{"source": ["el"], "target": ["el", "el"], "terms": ["v1", "v1"], "map": {"1": "2"}}, '
        '{"source": ["el", "el"], "target": ["el"], "terms": ["v1"], '
        '"map": {"1.0": "1", "2": "1"}}]}'
    )
    # an unhashable element, such as a JSON array, is printed and not kept
    assert diagram.element_key([1, 2], {}) == "[1, 2]"


@pytest.mark.parametrize("name", DOCTRINES)
def test_builds_render_nothing(monkeypatch, fresh_doctrine, name):
    """Building the representables, the functors of the catalog models
    and the fuzzed diagrams reads no morphism's terms and renders no
    value: syntax is made only on output."""
    d = fresh_doctrine(name)
    models = models_for(d, 3)
    counts = {"terms": 0, "render": 0}
    terms, render = TheoryMorphism.terms, Engine.render

    def counted_terms(m):
        counts["terms"] += 1
        return terms.fget(m)

    def counted_render(engine, value, sort):
        counts["render"] += 1
        return render(engine, value, sort)

    monkeypatch.setattr(TheoryMorphism, "terms", property(counted_terms))
    monkeypatch.setattr(Engine, "render", counted_render)
    for sort in d.sorts:
        diagram.representable_diagram(d, TheoryObject.of(sort), 2, 2)
    for alg in models:
        as_functor(alg, 2, 2)
    if name == "trivial":  # the fuzzers' one-sort, no-op doctrine
        for seed in range(3):
            for flavor in ("strict", "nonlocal", "any", "broken"):
                random_trivial_diagram(make_rng(seed), d, flavor)
            for inflate in (False, True):
                product_simplicial_diagram(d, random_sset(make_rng(seed)), inflate)
    assert counts == {"terms": 0, "render": 0}
    assert models and d.memo


def test_truncation_is_built_once_per_doctrine(group, fresh_doctrine):
    rep = TheoryObject.of(group.sorts[0])
    gens = generating_morphisms(group, 2)
    X = diagram.representable_diagram(group, rep, 2, 2)
    assert isinstance(gens, tuple)
    assert generating_morphisms(group, 2) is gens
    assert diagram.representable_diagram(group, rep, 2, 2) is X
    assert diagram.representable_diagram(group, rep, 2, 1) is not X
    other = fresh_doctrine("group")
    assert other.memo == {} and other.memo is not group.memo
    assert generating_morphisms(other, 2) == gens
    assert generating_morphisms(other, 2) is not gens
    assert diagram.representable_diagram(other, rep, 2, 2) is not X


def test_object_bound_zero_keeps_operations_inside(group, ring_module):
    """At object bound 0 the truncation is the terminal object alone, so
    no operation's arrow (a constant's () -> G included) is generating."""
    assert generating_morphisms(group, 0) == (theory_cat.identity(TERMINAL),)
    assert generating_morphisms(ring_module, 0) == (theory_cat.identity(TERMINAL),)
    X = as_functor(cyclic_group(group, 2), 0)
    assert X.objects() == [TERMINAL] and X.value(TERMINAL) == ((),)
    rep = diagram.representable_diagram(group, TheoryObject.of(group.sorts[0]), 0, 2)
    assert rep.objects() == [TERMINAL] and len(rep.value(TERMINAL)) == 1


@pytest.mark.parametrize("flavor", ["any", "nonlocal"])
def test_quotient_by_an_empty_union_find_renumbers_by_position(trivial, flavor):
    for seed in range(20):
        X = random_trivial_diagram(make_rng(seed), trivial, flavor)
        Q, classes = diagram.quotient(X, UnionFind())
        position = {(obj, x): i for obj in X.objects() for i, x in enumerate(X.value(obj))}
        assert classes == position
        assert all(Q.value(obj) == tuple(range(len(X.value(obj)))) for obj in X.objects())
        assert list(Q.arrows) == list(generating_morphisms(trivial, 2))
        for w, table in Q.arrows.items():
            assert table == {position[(w.source, x)]: position[(w.target, y)]
                             for x, y in X.arrows.get(w, {}).items()}


def test_quotient_refuses_a_class_with_two_image_classes(trivial):
    """Merging (0, 0) and (0, 1) at the square object but not their
    second projections 0 and 1 sends one class to two."""
    X = as_functor(trivial_model(trivial, 2), 2)
    T2 = TheoryObject.of(trivial.sorts[0], trivial.sorts[0])
    uf = UnionFind()
    uf.union((T2, (0, 0)), (T2, (0, 1)))
    with pytest.raises(NotFunctorial, match="sends one class to two"):
        diagram.quotient(X, uf)


def test_comparison_at_terminal_missing_and_partial_tables(trivial):
    X = random_trivial_diagram(make_rng(0), trivial, "any")
    el = trivial.sorts[0]
    T2 = TheoryObject.of(el, el)
    assert X.comparison(TheoryObject(())) == {x: () for x in X.value(TheoryObject(()))}
    first = projection(T2, [1])
    partial = dict(X.arrows)
    dropped = X.value(T2)[0]
    partial[first] = {x: y for x, y in X.arrows[first].items() if x != dropped}
    Y = diagram.DiagramOnTruncation(trivial, 2, 2, X.values, partial)
    assert list(Y.comparison(T2)) == list(X.value(T2)[1:])
    del partial[first]
    Z = diagram.DiagramOnTruncation(trivial, 2, 2, X.values, partial)
    assert Z.comparison(T2) is None


def test_comparison_of_a_two_sorted_functor(action):
    X = as_functor(action_model(action, "z2-swap"), 2)
    G, S = action.sort("G"), action.sort("X")
    obj = TheoryObject.of(G, S)
    images = X.comparison(obj)
    assert list(images) == list(X.value(obj))
    assert all(images[(a, b)] == ((a,), (b,)) for a, b in X.value(obj))


def test_element_key_prints_terms_by_class(trivial):
    """A tuple part is printed as a term only when it is one: a list
    has a `sort` method but is not a term."""
    x = Var("x", trivial.sorts[0])
    assert diagram.element_key((None, [3])) == "(None,[3])"
    assert diagram.element_key((x, ("a", 2))) == "(x,(a,2))"


def test_well_formed_problems_in_order(trivial):
    """Every stray key and image, arrow by arrow and entry by entry in
    table order; each object's value set is built once per call."""
    el = trivial.sorts[0]
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    to_point, diagonal, first, second = (
        m for m in generating_morphisms(trivial, 2)
        if (m.source, m.target) in ((T1, TERMINAL), (T1, T2), (T2, T1)))
    X = diagram.DiagramOnTruncation(
        trivial, 2, 2, {TERMINAL: ("p",), T1: ("a", "b"), T2: ("c",)}, {})
    X.arrows = {to_point: {"a": "p", "z": "p", "b": "q"},
                diagonal: {"a": "c", "b": "c"},
                first: {"y": "w", "c": "b", "x": "a"},
                second: {"c": "q"}}
    assert X.well_formed_problems() == [
        f"arrow {to_point}: 'z' not in source values",
        f"arrow {to_point}: image 'q' not in target values",
        f"arrow {first}: 'y' not in source values",
        f"arrow {first}: image 'w' not in target values",
        f"arrow {first}: 'x' not in source values",
        f"arrow {second}: image 'q' not in target values",
    ]


@pytest.mark.parametrize("images, factors", [
    ([("a", "x"), ("b", "x")], [["a", "b"], ["x"]]),  # bijective
    ([("a", "x"), ("b", "x")], [["a", "b", "a"], ["x"]]),  # a factor repeats an element
    ([("a", "x"), ("a", "x")], [["a", "b"], ["x"]]),  # not injective
    ([("a", "x")], [["a", "b"], ["x"]]),  # not surjective
    ([("a", "x"), ("c", "x")], [["a", "b"], ["x"]]),  # an image outside the product
    ([("a",), ("b",)], [["a", "b"], ["x"]]),  # images of the wrong arity
    ([], [["a", "b"], []]),  # an empty factor
    ([("a", "x")], [["a", "b"], []]),
    ([], [["a", "a"], []]),
    ([()], []),  # zero factors: the terminal object
    ([], []),
    ([(), ()], []),
])
def test_product_bijection_matches_listing_the_product(images, factors):
    want = diagram.is_bijection(images, list(itertools.product(*factors)))
    assert diagram.is_product_bijection(images, factors) == want


def test_product_bijection_on_random_maps():
    rng = random.Random(7)
    for _ in range(300):
        factors = [[rng.randrange(3) for _ in range(rng.randrange(3))]
                   for _ in range(rng.randrange(4))]
        pool = list(itertools.product(*(f + [9] for f in factors)))
        images = [rng.choice(pool) for _ in range(rng.randrange(5))] if pool else []
        if rng.random() < 0.5:
            images = list(itertools.product(*factors))
            rng.shuffle(images)
        want = diagram.is_bijection(images, list(itertools.product(*factors)))
        assert diagram.is_product_bijection(images, factors) == want
