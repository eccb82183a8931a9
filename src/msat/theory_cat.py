"""The multi-sorted theory category on top of a doctrine.

Objects are finite sort multisets kept in a canonical order; morphisms
are tuples of normalized terms over the source's standard context
(v1..vn); composition is substitution followed by normalization.
"""

from __future__ import annotations

import itertools

from .errors import IndexOutOfRange, ObjectMismatch, SourceMismatch
from .signature import (
    Context,
    Doctrine,
    Sort,
    Var,
    enumerate_terms,
    print_term,
    substitute,
    typecheck,
)


class TheoryObject:
    """A finite multiset of sorts; stored canonically sorted by name."""

    __slots__ = ("sorts", "_hash", "_context")

    def __init__(self, sorts: tuple):
        self.sorts = tuple(sorted(sorts, key=lambda s: s.name))
        self._hash = hash(("TObj", self.sorts))
        self._context = None

    @classmethod
    def of(cls, *sorts: Sort) -> "TheoryObject":
        return cls(tuple(sorts))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TheoryObject) and self.sorts == other.sorts
        )

    def __hash__(self):
        return self._hash

    @property
    def size(self) -> int:
        return len(self.sorts)

    def context(self) -> Context:
        if self._context is None:
            self._context = Context(
                tuple(Var(f"v{i+1}", s) for i, s in enumerate(self.sorts))
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


class TheoryMorphism:
    """A tuple of terms over the source context, one per target slot."""

    __slots__ = ("source", "target", "terms", "_hash")

    def __init__(self, source: TheoryObject, target: TheoryObject, terms: tuple):
        self.source = source
        self.target = target
        self.terms = tuple(terms)
        self._hash = hash(("TMor", source, target, self.terms))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TheoryMorphism)
            and self._hash == other._hash
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TheoryMorphism({self!s})"

    def __str__(self):
        body = ";".join(print_term(t) for t in self.terms)
        return f"{self.source} -> {self.target} : {body}"


def make_morphism(doctrine: Doctrine, source: TheoryObject, target: TheoryObject,
                  terms, normalize: bool = True) -> TheoryMorphism:
    """Validate and (for exact engines) normalize a term tuple."""
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
    if normalize and doctrine.exact:
        terms = tuple(doctrine.engine.normalize(t) for t in terms)
    return TheoryMorphism(source, target, terms)


def identity(obj: TheoryObject) -> TheoryMorphism:
    return TheoryMorphism(obj, obj, tuple(obj.context().vars))


def compose(doctrine: Doctrine, g: TheoryMorphism, f: TheoryMorphism) -> TheoryMorphism:
    """g after f: substitute f's terms into g's variables and normalize."""
    if f.target != g.source:
        raise ObjectMismatch(f"cannot compose: {f.target} != {g.source}")
    asg = {f"v{i+1}": t for i, t in enumerate(f.terms)}
    if doctrine.exact:
        terms = doctrine.engine.substitute(g.terms, asg)
    else:
        terms = tuple(substitute(t, asg) for t in g.terms)
    return TheoryMorphism(f.source, g.target, terms)


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
    flat = [t for f in fs for t in f.terms]
    sorts = [s for f in fs for s in f.target.sorts]
    ordered = [t for _, t in _stable_pairs(sorts, flat)]
    return make_morphism(doctrine, src, target, ordered)


def _stable_pairs(sorts, items):
    tagged = list(zip(sorts, items, range(len(items))))
    tagged.sort(key=lambda p: (p[0].name, p[2]))
    return [(s, it) for s, it, _ in tagged]


def _stable_by_sort(vars_):
    return [v for _, v in _stable_pairs([v.sort for v in vars_], vars_)]


def hom_enumerate(src: TheoryObject, tgt: TheoryObject, doctrine: Doctrine,
                  bound: int) -> list[TheoryMorphism]:
    """All morphisms whose every component has normal-form size <= bound:
    the cartesian product of componentwise term enumerations."""
    ctx = src.context()
    per_slot = [enumerate_terms(ctx, s, doctrine, bound) for s in tgt.sorts]
    out = []
    for combo in itertools.product(*per_slot):
        out.append(TheoryMorphism(src, tgt, tuple(combo)))
    return out


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


def generating_morphisms(doctrine: Doctrine, object_bound: int) -> list[TheoryMorphism]:
    """Arrows generating the truncated category: every variable-tuple
    morphism between objects of size <= object_bound, plus every single
    operation applied to a variable assignment (allowing repeats, so
    operations of arity above the object bound still act)."""
    objs = objects_up_to(doctrine, object_bound)
    out: list[TheoryMorphism] = []
    seen = set()

    def push(m):
        key = (m.source, m.target, m.terms)
        if key not in seen:
            seen.add(key)
            out.append(m)

    for a in objs:
        for b in objs:
            for m in variable_morphisms(a, b):
                push(m)
    for op in doctrine.ops:
        tgt = TheoryObject.of(op.codomain)
        for src in objs:
            ctx = src.context().vars
            choices = []
            for s in op.domain:
                choices.append([v for v in ctx if v.sort == s])
            for combo in itertools.product(*choices):
                if set(combo) != set(ctx):
                    continue  # source must be exactly the used variables
                term = _app_normalized(doctrine, op, combo)
                push(TheoryMorphism(src, tgt, (term,)))
        if not op.domain:
            term = _app_normalized(doctrine, op, ())
            push(TheoryMorphism(TERMINAL, tgt, (term,)))
    return out


def _app_normalized(doctrine, op, args):
    from .signature import App

    t = App(op, tuple(args))
    if doctrine.exact:
        t = doctrine.engine.normalize(t)
    return t


# -- JSON encoding -----------------------------------------------------

def object_to_json(obj: TheoryObject) -> list[str]:
    return [s.name for s in obj.sorts]


def object_from_json(doctrine: Doctrine, data) -> TheoryObject:
    return TheoryObject(tuple(doctrine.sort(n) for n in data))


def morphism_to_json(m: TheoryMorphism) -> dict:
    return {
        "source": object_to_json(m.source),
        "target": object_to_json(m.target),
        "terms": [print_term(t) for t in m.terms],
    }
