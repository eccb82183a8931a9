"""Set-valued diagrams on a truncation of the theory category.

A DiagramOnTruncation stores finite value sets for every object up to
the object bound and transition tables for the generating morphisms.
Tables may be partial (truncated representables drop images that leave
the enumerated fragment); checks and solvers only constrain where a
table is defined.  Natural transformations into a functor are the
solutions of one constraint per defined table entry (`search.solve`).

A diagram is numbered once, when it is built, as `msat.numbering`
numbers a simplicial set: an element stands for the first position it
takes in its object's values, and each table is also a list of
positions (`numbering.table_positions`), -1 where it is undefined, with
one trailing -1; every copy of an element that a value list repeats
reads that element's entry, so the copy changes no closure, comparison
map or natural transformation, only the strictness check.  The
closure, the comparison maps and the natural-transformation
constraints work on those lists; an element is read only to build a
result or to spell a message.  The closure is semi-naive (Bancilhon
1986): a pair of tables is joined again only after one of them changed.

`DiagramOnTruncation.comparison` is the one canonical map
X(T) -> X(T_1) x ... x X(T_n) read off the projection tables; the
strictness check, both routes of `rigidify` and the universal-property
check all read it.  `is_bijection` is the one bijection test;
`is_product_bijection` is that test onto a product of finite sets
without listing the product, for the strictness check, `verify_ktk`
and `models.adjunction_check`.

The elements of a representable Hom(T, -) are its morphisms, and an
arrow acts on them as composition does; the tables are built on
positions, from one value list per sort and mixed-radix arithmetic,
so building one composes and renders nothing; `element_key` spells an
element as text only on output.  A
representable diagram and a composite met by the closure are pure
functions of the doctrine and the bounds; both are built once and kept
in `Doctrine.memo`, so a representable is shared and read-only.  The
closure's only composite store is that memo, and the surjectivity step
of `rigidify` glues copies of the memoized representable.

A pushout is a `coproduct_diagram` followed by a `quotient`: the
classes of a diagram's elements under a `search.UnionFind` on
(object, element) keys, numbered by their first member, with each
generating arrow acting on classes.  Both localization steps of
`rigidify` end in one.

Output prints each distinct element once per report: `diagram_to_json`
and `dsl.simplicial_to_data` pass one `printed` memo, shared with
`theory_cat.morphism_to_json`, to every `element_key` call, and a table
entry looks up the texts of its key and image instead of walking them
again.
"""

from __future__ import annotations

import math
from itertools import product
from operator import itemgetter

from .errors import InvalidParameter, NotFunctorial
from .numbering import first_positions, table_positions
from .search import UnionFind, solve
from .signature import App, Doctrine, Var, enumerate_values, print_term
from .theory_cat import (
    TheoryMorphism,
    TheoryObject,
    compose,
    generating_morphisms,
    hom_enumerate,
    identity,
    morphism_to_json,
    objects_up_to,
    projection,
    term_texts,
)


_UNSEEN = object()


class DiagramOnTruncation:
    """The values at each object of the truncation and a table for each
    given arrow, numbered once when built (`_number`).  A diagram is
    read-only once built: its closure and comparison maps are computed
    from the numbering once and kept."""

    def __init__(self, doctrine: Doctrine, object_bound: int, term_bound: int,
                 values: dict, arrows: dict):
        self.doctrine = doctrine
        self.object_bound = object_bound
        self.term_bound = term_bound
        self._objects = objects_up_to(doctrine, object_bound)
        self.values = {obj: tuple(values.get(obj, ())) for obj in self._objects}
        self.arrows = {m: dict(t) for m, t in arrows.items()}
        self._closure_cache = None
        self._comparisons: dict = {}
        problems = [f"values at {obj} leave the truncation"
                    for obj in values if obj not in self.values]
        self._firsts, self._tables, found = self._number()
        problems += found
        if problems:
            raise InvalidParameter("malformed diagram: " + "; ".join(problems[:3]))

    def objects(self):
        return list(self._objects)

    def value(self, obj: TheoryObject):
        return self.values[obj]

    def well_formed_problems(self):
        """Every arrow that leaves the truncation, and every table key or
        image with no position in its object's values, arrow by arrow
        and entry by entry in table order."""
        return self._number()[2]

    def _number(self):
        """(firsts, tables, problems): each object's elements -> their
        first positions, and each arrow m -> (image, keys) of
        `table_positions`, where image[k] is the position of the image
        of position k (-1 where the table is undefined, and one trailing
        -1) and keys lists the table's keys as positions, in table order;
        problems as in `well_formed_problems`, for the arrows they leave
        out."""
        firsts = {obj: first_positions(vals) for obj, vals in self.values.items()}
        tables, problems = {}, []
        for m, table in self.arrows.items():
            src, tgt = firsts.get(m.source), firsts.get(m.target)
            if src is None or tgt is None:
                problems.append(f"arrow {m} leaves the truncation")
                continue
            images, keys, bad = table_positions(table, self.values[m.source], src, tgt)
            for x, y in bad:
                if x not in src:
                    problems.append(f"arrow {m}: {x!r} not in source values")
                if y not in tgt:
                    problems.append(f"arrow {m}: image {y!r} not in target values")
            if not bad:
                images.append(-1)
                tables[m] = (images, keys)
        return firsts, tables, problems

    def morphism_size(self, m: TheoryMorphism) -> int:
        size = self.doctrine.engine.value_size
        return max((size(v, s) for v, s in zip(m.values, m.target.sorts)), default=0)

    def arrow_closure(self):
        """All morphism actions derivable from the given arrows by
        composition, staying within the term bound.  Returns
        (closure dict, conflicts list); a conflict is a functoriality
        violation, each distinct one listed once, in the order found.

        Semi-naive on positions (Bancilhon 1986): each round composes the
        composable pairs (f outer, g inner) of the entries present when
        it starts, in order, as position lists (`_join`), and merges the
        composite's table, until a round adds nothing.  A pair is joined
        again only when f or g is new, or grew in the previous round or
        earlier in this one; otherwise its composite table is the one its
        last join merged, which can add nothing.  A composite equal to
        its entry's table is one list comparison.  A composite (None
        past the term bound) is read from the doctrine's `memo`, so a
        pair is composed at most once per doctrine and term bound."""
        if self._closure_cache is not None:
            return self._closure_cache
        values = self.values
        join = _join
        # entry i: its morphism, image positions, keys in insertion order,
        # and the last round in which it was added or grew
        ms, imgs, keys, grown = [], [], [], []
        index: dict[TheoryMorphism, int] = {}
        conflicts: dict[str, None] = {}
        rnd = 0

        def merge(i, image, order):
            """Merge the entries `order` of `image` into entry i; True if
            it grew."""
            m, existing, known = ms[i], imgs[i], keys[i]
            grew = False
            for x in order:
                y, e = image[x], existing[x]
                if e < 0:
                    existing[x] = y
                    known.append(x)
                    grew = True
                elif e != y:
                    src, tgt = values[m.source], values[m.target]
                    conflicts[
                        f"arrow {m}: composite images disagree at {src[x]!r}: "
                        f"{tgt[e]!r} vs {tgt[y]!r}"
                    ] = None
            if grew:
                grown[i] = rnd
            return grew

        def add(m, image, order):
            index[m] = len(ms)
            ms.append(m)
            imgs.append(image)
            keys.append(order)
            grown.append(rnd)

        for obj in self._objects:
            first = self._firsts[obj]  # every copy of an element reads its first position
            add(identity(obj), [*map(first.__getitem__, values[obj]), -1], sorted(first.values()))
        for m, (image, order) in self._tables.items():
            i = index.get(m)
            if i is None:
                add(m, image[:], list(order))
            else:
                merge(i, image, order)
        # (f, g) -> g after f, or None past the term bound
        composites = self.doctrine.memo.setdefault(("composites", self.term_bound), {})
        changed = True
        while changed:
            changed = False
            rnd += 1
            last = rnd - 1
            n = len(ms)
            by_source: dict[TheoryObject, list] = {}
            for gi in range(n):
                by_source.setdefault(ms[gi].source, []).append(gi)
            for fi in range(n):
                f, fimg = ms[fi], imgs[fi]
                for gi in by_source.get(f.target, ()):
                    if grown[fi] < last and grown[gi] < last:
                        continue
                    g = ms[gi]
                    h = composites.get((f, g), _UNSEEN)
                    if h is _UNSEEN:
                        h = compose(self.doctrine, g, f)
                        if self.morphism_size(h) > self.term_bound:
                            h = None
                        composites[(f, g)] = h
                    if h is None:
                        continue
                    himg = join(fimg, imgs[gi])
                    hi = index.get(h)
                    if hi is not None and himg == imgs[hi]:
                        continue
                    order = [x for x in keys[fi] if himg[x] >= 0]
                    if not order:
                        continue
                    if hi is None:
                        add(h, himg, order)
                        changed = True
                    elif merge(hi, himg, order):
                        changed = True
        closure = {}
        for m, image, order in zip(ms, imgs, keys):
            src, tgt = values[m.source], values[m.target]
            closure[m] = {src[x]: tgt[image[x]] for x in order}
        self._closure_cache = (closure, list(conflicts))
        return self._closure_cache

    def check_functorial(self):
        """Functoriality on all composable generating pairs whose
        composite stays within bounds; identity arrows must act as the
        identity.  Returns a list of violation descriptions: the moved
        identity entries, then each distinct closure conflict once."""
        problems = []
        for m, table in self.arrows.items():
            if m.source == m.target and m == identity(m.source):
                for x, y in table.items():
                    if x != y:
                        problems.append(f"identity arrow of {m.source} moves {x!r} to {y!r}")
        _, conflicts = self.arrow_closure()
        problems.extend(conflicts)
        return problems

    def comparison(self, obj: TheoryObject):
        """The canonical map X(obj) -> X(T_1) x ... x X(T_n) into the
        product of the size-one values at the sorts of obj: each element
        goes to the tuple of its images under the projections
        obj -> T_i.  Returned as a dict on the elements where every
        projection table is defined; None when a projection table is
        missing.  At the terminal object every element goes to ().
        Read off the projections' position tables once per object; the
        dict is shared, so callers must not change it."""
        try:
            return self._comparisons[obj]
        except KeyError:
            pass
        tables = [self._tables.get(projection(obj, [i])) for i in range(1, obj.size + 1)]
        if any(t is None for t in tables):
            images = None
        elif not tables:
            images = {x: () for x in self.values[obj]}
        else:
            factors = [self.values[TheoryObject.of(s)] for s in obj.sorts]
            images = {}
            for x, row in zip(self.values[obj], zip(*(image for image, _ in tables))):
                if -1 not in row:
                    images[x] = tuple(map(tuple.__getitem__, factors, row))
        self._comparisons[obj] = images
        return images


def _join(fimg: list, gimg: list) -> list:
    """The position table of g after f from those of f and g: -1, and
    so f's trailing -1, reads g's trailing -1."""
    return list(map(gimg.__getitem__, fimg))


def is_bijection(images, codomain) -> bool:
    """True when `images`, the list of the images of a map's domain
    elements, hits every element of `codomain` exactly once.  A
    `codomain` that lists an element twice has no bijection onto it."""
    codomain = list(codomain)
    hit = set(images)
    return len(hit) == len(images) == len(codomain) and hit == set(codomain)


def is_product_bijection(images, factors: list) -> bool:
    """`is_bijection(images, itertools.product(*factors))` without
    listing the product: the images are distinct, as many as the
    product lists, and component i of each lies in factor i.  A factor
    that repeats an element leaves fewer distinct tuples than that, so
    a product that lists an element twice has no bijection onto it.
    Zero factors make the one-element product {()}."""
    hit = set(images)
    if not len(hit) == len(images) == math.prod(map(len, factors)):
        return False
    return {len(factors)}.issuperset(map(len, hit)) and all(
        map(set.issuperset, map(set, factors), zip(*hit)))


# -- functors induced by algebras and representables --------------------


def representable_diagram(doctrine: Doctrine, rep: TheoryObject, object_bound: int,
                          term_bound: int) -> DiagramOnTruncation:
    """Hom(rep, -) restricted to the truncation.  Its elements are the
    enumerated morphisms themselves (`hom_enumerate`), and an arrow w
    sends m to the composite w after m when that composite is
    enumerated; images outside the enumerated fragment are left
    undefined.  The tables are built on positions, not by composing:
    Hom(rep, B) is the product of one value list per slot of B, so a
    morphism stands for its tuple of slot positions, and the image of m
    is read slot by slot (see `_representable_diagram`), equal to
    `compose(w, m)` entry by entry.  Nothing is rendered: `element_key`
    prints a morphism element as its term tuple on output.  Built once
    per (rep, object_bound, term_bound) and kept in `doctrine.memo`, so
    every caller shares one diagram and its closure cache: the result
    is read-only, and nothing may write its `values` or `arrows`."""
    key = ("representable_diagram", rep, object_bound, term_bound)
    X = doctrine.memo.get(key)
    if X is None:
        X = doctrine.memo[key] = _representable_diagram(doctrine, rep, object_bound, term_bound)
    return X


def _representable_diagram(doctrine, rep, object_bound, term_bound):
    """Each sort's values over rep's context are listed once, with the
    first position of each value.  A morphism into B is then a digit
    per slot of B, and its position in Hom(rep, B) the mixed-radix
    number of its digits, in `hom_enumerate`'s product order.  A
    variable slot of an arrow w: A -> B takes the digit of the source
    slot it names; any other slot binds its value in the environment of
    m's values (`Engine.bind`, as `compose` does) and looks the result
    up, and a value with no position leaves the entry undefined."""
    ctx = rep.context()
    per_sort = {s: enumerate_values(ctx, s, doctrine, term_bound) for s in doctrine.sorts}
    position = {s: first_positions(vals) for s, vals in per_sort.items()}
    objs = objects_up_to(doctrine, object_bound)
    values = {obj: tuple(hom_enumerate(rep, obj, doctrine, term_bound)) for obj in objs}
    digits = {obj: list(product(*[range(len(per_sort[s])) for s in obj.sorts]))
              for obj in objs}
    bind = doctrine.engine.bind
    arrows = {}
    for w in generating_morphisms(doctrine, object_bound):
        source, target = w.source, w.target
        slots = []  # (source slot or None, value, sort, stride), last slot first
        stride = 1
        for v, s in zip(reversed(w.values), reversed(target.sorts)):
            slot = source.names.index(v.name) if v.__class__ is Var else None
            slots.append((slot, v, s, stride))
            stride *= len(per_sort[s])
        images, names = values[target], source.names
        table = {}
        for m, ds in zip(values[source], digits[source]):
            at, env = 0, None
            for slot, v, s, stride in slots:
                if slot is not None:
                    at += ds[slot] * stride
                    continue
                if env is None:
                    env = dict(zip(names, m.values))
                p = position[s].get(bind(v, env, s))
                if p is None:
                    break
                at += p * stride
            else:
                table[m] = images[at]
        arrows[w] = table
    return DiagramOnTruncation(doctrine, object_bound, term_bound, values, arrows)


def coproduct_diagram(doctrine: Doctrine, summands, object_bound: int,
                      term_bound: int) -> DiagramOnTruncation:
    """Disjoint union of diagrams: elements are (index, element) pairs."""
    summands = list(summands)
    values = {}
    for obj in objects_up_to(doctrine, object_bound):
        vals = []
        for i, X in enumerate(summands):
            vals.extend((i, x) for x in X.value(obj))
        values[obj] = tuple(vals)
    arrows = {}
    for m in dict.fromkeys(m for X in summands for m in X.arrows):
        table = {}
        for i, X in enumerate(summands):
            for x, y in X.arrows.get(m, {}).items():
                table[(i, x)] = (i, y)
        arrows[m] = table
    return DiagramOnTruncation(doctrine, object_bound, term_bound, values, arrows)


def quotient(X: DiagramOnTruncation, uf: UnionFind):
    """The diagram of the classes of X's elements under `uf`, whose keys
    are (object, element) pairs, and the class of each (object,
    element).  The classes at an object are numbered 0, 1, ... in the
    order of their first member in X's values there, so a quotient that
    merges nothing keeps every element's position.  Each generating
    arrow acts on a class through its members' entries in X; two
    members of one class whose images fall in different classes raise
    `NotFunctorial`."""
    classes = {}
    values = {}
    for obj in X.objects():
        number: dict = {}  # root -> class
        for x in X.value(obj):
            classes[(obj, x)] = number.setdefault(uf.find((obj, x)), len(number))
        values[obj] = range(len(number))
    arrows = {}
    for w in generating_morphisms(X.doctrine, X.object_bound):
        table: dict = {}
        for x, y in X.arrows.get(w, {}).items():
            image = classes[(w.target, y)]
            if table.setdefault(classes[(w.source, x)], image) != image:
                raise NotFunctorial(f"quotient sends one class to two along {w}")
        arrows[w] = table
    return DiagramOnTruncation(X.doctrine, X.object_bound, X.term_bound, values, arrows), classes


# -- natural transformations --------------------------------------------


def natural_transformations(X: DiagramOnTruncation, Y):
    """All families eta_obj: X(obj) -> Y(obj) natural for every defined
    arrow entry of X, in lexicographic order of the unknowns eta_obj(x).
    Y must expose value(obj) and morphism_map(m) (total on its values).
    Each arrow entry x -> y of X(m) is the constraint
    eta(y) = Y(m)(eta(x)) for `search.solve`, read off X's position
    tables: the unknowns are X's elements at their first positions, and
    the entries of one arrow share its image lookup."""
    unknowns, domains = [], []
    unknown = {}  # obj -> position -> the index of its element's unknown
    for obj in X.objects():
        vals, first = X.values[obj], X._firsts[obj]
        base = len(unknowns)
        if len(first) == len(vals):
            unknown[obj] = range(base, base + len(vals))
            unknowns += [(obj, x) for x in vals]
        else:  # a value list may name an element twice; it is one unknown
            at = unknown[obj] = []
            for k, x in enumerate(vals):
                if first[x] == k:
                    at.append(len(unknowns))
                    unknowns.append((obj, x))
                else:
                    at.append(at[first[x]])
        domains += [Y.value(obj)] * (len(unknowns) - base)
    constraints = []
    for m, (image, keys) in X._tables.items():
        if not keys:
            continue
        fn, src, tgt = Y.morphism_map(m).__getitem__, unknown[m.source], unknown[m.target]
        constraints += [(fn, (src[x],), tgt[image[x]]) for x in keys]
    return [dict(zip(unknowns, values)) for values in solve(domains, constraints)]


# -- serialization -------------------------------------------------------


def element_key(e, printed: dict | None = None) -> str:
    """The JSON text of a diagram element, the one way an element is
    spelled: a string is itself, a tuple prints its parts in
    parentheses (a term part by `print_term`), a morphism (an element
    of a representable) prints as the tuple of its terms, and anything
    else by `str`.

    `printed` is the memo of one report, shared with `morphism_to_json`
    and created by the top-level call when not given.  It keeps the
    text of each distinct element (and tuple part) under the key
    (class, element), so `1`, `True` and `1.0` stay apart, and a
    morphism reads its slot texts from the (value, sort) entries that
    `term_texts` fills; so each is printed once per report.  Tuples are
    told apart by equality alone, as (1,) == (True,), but neither JSON
    nor any msat constructor builds a tuple that mixes a bool or a
    float with an int."""
    cls = e.__class__
    if cls is str:
        return e
    if printed is None:
        printed = {}
    key = (cls, e)
    try:
        text = printed.get(key)
    except TypeError:  # an unhashable element, such as a JSON array
        return _spell(e, printed)
    if text is None:
        text = printed[key] = _spell(e, printed)
    return text


def _spell(e, printed: dict) -> str:
    """The text of an element that `printed` does not hold yet; its
    parts are read through `element_key`."""
    cls = e.__class__
    if cls is int:
        return str(e)
    if cls is not tuple:
        if isinstance(e, str):
            return e
        if isinstance(e, TheoryMorphism):
            return "(" + ",".join(term_texts(e, printed)) + ")"
        if not isinstance(e, tuple):
            return str(e)
    inner = []
    for part in e:
        if isinstance(part, (App, Var)):
            inner.append(print_term(part))
        else:
            inner.append(element_key(part, printed))
    return "(" + ",".join(inner) + ")"


def table_to_json(table: dict, printed: dict) -> dict:
    """The JSON object of a transition table, each entry's texts read
    from the report's `printed` memo (`element_key`).  The entries are
    sorted stably on the key text alone, so of two keys with one text
    the later one wins."""
    pairs = [(element_key(x, printed), element_key(y, printed)) for x, y in table.items()]
    pairs.sort(key=itemgetter(0))
    return dict(pairs)


def diagram_to_json(X: DiagramOnTruncation, printed: dict | None = None) -> dict:
    """The JSON of a diagram.  `printed` is the report's one memo
    (`element_key`), created here when not given: every distinct
    element and slot value is printed once, and each value list and
    table entry looks its text up."""
    printed = {} if printed is None else printed
    values = []
    for obj in X.objects():
        values.append({
            "object": [s.name for s in obj.sorts],
            "elements": [element_key(e, printed) for e in X.value(obj)],
        })
    keyed = []
    for m, table in X.arrows.items():
        entry = morphism_to_json(m, printed)
        entry["map"] = table_to_json(table, printed)
        # sorted on str(m), spelled from the printed terms
        keyed.append((f"{m.source} -> {m.target} : {';'.join(entry['terms'])}", entry))
    keyed.sort(key=lambda p: p[0])
    arrows = [entry for _, entry in keyed]
    return {
        "object_bound": X.object_bound,
        "term_bound": X.term_bound,
        "values": values,
        "arrows": arrows,
    }
