"""The multi-sorted theory category on top of a doctrine.

Objects are finite sort multisets kept in a canonical order.  A
morphism is a tuple of free-algebra elements over the source's standard
context (v1..vn), one per target slot, held as the doctrine engine's
values (`signature.Engine`); composition binds the outer morphism's
values in an environment of the inner one's, the Kleisli composition of
the free-algebra monad, and renders nothing.  Terms are rendered only
on demand (`TheoryMorphism.terms`), for printing, JSON and the
relations of a presentation, which are syntax.  Objects and morphisms are hash-consed
(`signature.Interned`), so equal objects and equal morphisms, however
they were reached, are the same Python object.
"""

from __future__ import annotations

import itertools

from .errors import IndexOutOfRange, ObjectMismatch, SourceMismatch
from .signature import (
    App,
    Context,
    Doctrine,
    Interned,
    Sort,
    Var,
    enumerate_values,
    print_term,
    typecheck,
)


class TheoryObject(Interned):
    """A finite multiset of sorts; stored canonically sorted by name.
    `names` are the names of its standard context's variables."""

    __slots__ = ("sorts", "names", "_context")

    def __new__(cls, sorts: tuple):
        sorts = tuple(sorted(sorts, key=lambda s: s.name))
        return cls._table.get(sorts) or cls._intern(
            sorts, sorts, tuple([f"v{i+1}" for i in range(len(sorts))]), None
        )

    @classmethod
    def of(cls, *sorts: Sort) -> "TheoryObject":
        return cls(sorts)

    def __reduce__(self):
        return TheoryObject, (self.sorts,)

    @property
    def size(self) -> int:
        return len(self.sorts)

    def context(self) -> Context:
        if self._context is None:
            self._context = Context(
                tuple(Var(n, s) for n, s in zip(self.names, self.sorts))
            )
        return self._context

    def union(self, other: "TheoryObject") -> "TheoryObject":
        return TheoryObject(self.sorts + other.sorts)

    def key(self) -> str:
        return ",".join(s.name for s in self.sorts)

    def __repr__(self):
        return f"TheoryObject({self.key()!r})"

    def __str__(self):
        return self.key() or "()"


TERMINAL = TheoryObject(())


class TheoryMorphism(Interned):
    """One value over the source context per target slot.

    The value of a lone variable is that `Var` in every engine, so a
    morphism of variables (identities, projections, ...) has no engine
    and needs no doctrine.  Any other morphism carries the doctrine
    engine that renders its values, and is interned on it, so equal
    values of two engines never meet in one key.  The constructor takes
    values and rejects a value other than a `Var` without an engine:
    build a morphism from terms with `make_morphism`."""

    __slots__ = ("source", "target", "values", "engine")

    def __new__(cls, source: TheoryObject, target: TheoryObject, values,
                engine=None):
        values = tuple(values)
        key = (source, target, values, engine)
        hit = cls._table.get(key)
        if hit is not None:
            return hit
        if len(values) != target.size:
            raise ObjectMismatch(
                f"{len(values)} values supplied for target of size {target.size}"
            )
        if engine is None:
            for v, want in zip(values, target.sorts):
                if v.__class__ is not Var:
                    raise ObjectMismatch(
                        f"value {v!r} is not a variable and no engine is given; "
                        "build morphisms of terms with make_morphism"
                    )
                if v.sort is not want:
                    raise ObjectMismatch(
                        f"variable {v.name} has sort {v.sort.name}, slot wants {want.name}"
                    )
        return cls._intern(key, source, target, values, engine)

    # perfbench's tracer wraps `__eq__` in the class's own __dict__, so
    # the identity equality every Interned class inherits is named here.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def terms(self) -> tuple:
        """The canonical terms of the values, rendered on each read and
        not stored."""
        engine = self.engine
        if engine is None:
            return self.values
        return tuple([engine.render(v, s) for v, s in zip(self.values, self.target.sorts)])

    def __repr__(self):
        return f"TheoryMorphism({self!s})"

    def __str__(self):
        body = ";".join(print_term(t) for t in self.terms)
        return f"{self.source} -> {self.target} : {body}"


def _morphism(doctrine: Doctrine, source: TheoryObject, target: TheoryObject,
              values: tuple) -> TheoryMorphism:
    """The morphism of `values`, interned on the doctrine's engine
    unless every value is a variable."""
    for v in values:
        if v.__class__ is not Var:
            return TheoryMorphism(source, target, values, doctrine.engine)
    return TheoryMorphism(source, target, values)


def make_morphism(doctrine: Doctrine, source: TheoryObject, target: TheoryObject,
                  terms) -> TheoryMorphism:
    """The morphism of a validated term tuple (normalized, for exact
    engines, by taking its values)."""
    terms = tuple(terms)
    if len(terms) != target.size:
        raise ObjectMismatch(
            f"{len(terms)} terms supplied for target of size {target.size}"
        )
    ctx = source.context()
    for t, want in zip(terms, target.sorts):
        got = typecheck(t, ctx, doctrine)
        if got != want:
            raise ObjectMismatch(f"term {print_term(t)} has sort {got.name}, slot wants {want.name}")
    value = doctrine.engine.value
    return _morphism(doctrine, source, target, tuple([value(t) for t in terms]))


def identity(obj: TheoryObject) -> TheoryMorphism:
    return TheoryMorphism(obj, obj, tuple(obj.context().vars))


def compose(doctrine: Doctrine, g: TheoryMorphism, f: TheoryMorphism) -> TheoryMorphism:
    """g after f: g's values bound in the environment of f's values.  A
    slot of g that is a variable selects f's value."""
    if f.target is not g.source:
        raise ObjectMismatch(f"cannot compose: {f.target} != {g.source}")
    env = dict(zip(g.source.names, f.values))
    bind = doctrine.engine.bind
    values = []
    for v, s in zip(g.values, g.target.sorts):
        values.append(env[v.name] if v.__class__ is Var else bind(v, env, s))
    return _morphism(doctrine, f.source, g.target, tuple(values))


def projection(obj: TheoryObject, selection) -> TheoryMorphism:
    """Morphism induced by selecting the 1-based indices of `obj`."""
    vars_ = obj.context().vars
    picked = []
    for i in selection:
        if not 1 <= i <= obj.size:
            raise IndexOutOfRange(f"index {i} out of range for object of size {obj.size}")
        picked.append(vars_[i - 1])
    target = TheoryObject.of(*(v.sort for v in picked))
    ordered = _stable_by_sort(picked)
    return TheoryMorphism(obj, target, tuple(ordered))


def product(a: TheoryObject, b: TheoryObject):
    """Multiset union with its two canonical projections."""
    combined = a.union(b)
    # positions of a's slots in the canonical union: for each sort, a's
    # copies occupy the first positions of that sort's run
    a_idx, b_idx = [], []
    runs: dict[str, list[int]] = {}
    for pos, s in enumerate(combined.sorts):
        runs.setdefault(s.name, []).append(pos + 1)
    a_count: dict[str, int] = {}
    for s in a.sorts:
        a_count[s.name] = a_count.get(s.name, 0) + 1
    for name, positions in runs.items():
        k = a_count.get(name, 0)
        a_idx.extend(positions[:k])
        b_idx.extend(positions[k:])
    return combined, projection(combined, sorted(a_idx)), projection(combined, sorted(b_idx))


def tuple_(doctrine: Doctrine, fs) -> TheoryMorphism:
    """Pairing: the unique morphism into the product of the targets."""
    fs = list(fs)
    if not fs:
        raise SourceMismatch("tuple_ needs at least one morphism")
    src = fs[0].source
    for f in fs:
        if f.source != src:
            raise SourceMismatch(f"sources differ: {f.source} != {src}")
    target = TheoryObject(tuple(s for f in fs for s in f.target.sorts))
    flat = [v for f in fs for v in f.values]
    sorts = [s for f in fs for s in f.target.sorts]
    return _morphism(doctrine, src, target, tuple([v for _, v in _stable_pairs(sorts, flat)]))


def _stable_pairs(sorts, items):
    tagged = list(zip(sorts, items, range(len(items))))
    tagged.sort(key=lambda p: (p[0].name, p[2]))
    return [(s, it) for s, it, _ in tagged]


def _stable_by_sort(vars_):
    return [v for _, v in _stable_pairs([v.sort for v in vars_], vars_)]


def hom_enumerate(src: TheoryObject, tgt: TheoryObject, doctrine: Doctrine,
                  bound: int) -> list[TheoryMorphism]:
    """All morphisms whose every component has normal-form size <= bound:
    the cartesian product of componentwise value enumerations."""
    ctx = src.context()
    per_slot = [enumerate_values(ctx, s, doctrine, bound) for s in tgt.sorts]
    return [_morphism(doctrine, src, tgt, combo) for combo in itertools.product(*per_slot)]


def objects_up_to(doctrine: Doctrine, bound: int) -> list[TheoryObject]:
    """All theory objects of multiset size <= bound, deterministically."""
    out = [TERMINAL]
    sorts = sorted(doctrine.sorts, key=lambda s: s.name)
    for n in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(sorts, n):
            out.append(TheoryObject(tuple(combo)))
    return out


def variable_morphisms(src: TheoryObject, tgt: TheoryObject) -> list[TheoryMorphism]:
    """All morphisms whose terms are bare variables (projections,
    diagonals, permutations, and their mixtures)."""
    ctx = src.context().vars
    choices = []
    for s in tgt.sorts:
        slots = [v for v in ctx if v.sort == s]
        choices.append(slots)
    out = []
    for combo in itertools.product(*choices):
        out.append(TheoryMorphism(src, tgt, tuple(combo)))
    return out


def generating_morphisms(doctrine: Doctrine, object_bound: int) -> tuple[TheoryMorphism, ...]:
    """Arrows generating the truncated category: every variable-tuple
    morphism between objects of size <= object_bound, plus every single
    operation applied to a variable assignment (allowing repeats, so
    operations of arity above the object bound still act) whose codomain
    is in the truncation.  Built once per object bound and kept in
    `doctrine.memo`; every caller gets the same tuple."""
    key = ("generating_morphisms", object_bound)
    gens = doctrine.memo.get(key)
    if gens is None:
        gens = doctrine.memo[key] = _generating_morphisms(doctrine, object_bound)
    return gens


def _generating_morphisms(doctrine: Doctrine, object_bound: int) -> tuple[TheoryMorphism, ...]:
    objs = objects_up_to(doctrine, object_bound)
    value = doctrine.engine.value
    out: list[TheoryMorphism] = []
    for a in objs:
        for b in objs:
            out.extend(variable_morphisms(a, b))
    for op in doctrine.ops:
        tgt = TheoryObject.of(op.codomain)
        if tgt not in objs:
            continue  # object bound 0: only the terminal object
        for src in objs:
            ctx = src.context().vars
            choices = []
            for s in op.domain:
                choices.append([v for v in ctx if v.sort == s])
            for combo in itertools.product(*choices):
                if set(combo) != set(ctx):
                    continue  # source must be exactly the used variables
                out.append(_morphism(doctrine, src, tgt, (value(App(op, combo)),)))
    return tuple(dict.fromkeys(out))


# -- JSON encoding -----------------------------------------------------

def object_to_json(obj: TheoryObject) -> list[str]:
    return [s.name for s in obj.sorts]


def object_from_json(doctrine: Doctrine, data) -> TheoryObject:
    return TheoryObject(tuple(doctrine.sort(n) for n in data))


def term_texts(m: TheoryMorphism, printed: dict | None = None) -> list:
    """The printed terms of `m`'s values.  A `printed` dict shared by
    the morphisms of one doctrine, say those of one report, renders and
    prints each distinct slot value once: its entry for (value, sort)
    is the text."""
    printed = {} if printed is None else printed
    terms = []
    for v, s in zip(m.values, m.target.sorts):
        text = printed.get((v, s))
        if text is None:
            term = v if m.engine is None else m.engine.render(v, s)
            text = printed[(v, s)] = print_term(term)
        terms.append(text)
    return terms


def morphism_to_json(m: TheoryMorphism, printed: dict | None = None) -> dict:
    """The JSON of a morphism, its terms printed by `term_texts` with
    the shared `printed` dict."""
    return {
        "source": object_to_json(m.source),
        "target": object_to_json(m.target),
        "terms": term_texts(m, printed),
    }
