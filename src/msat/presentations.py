"""Generators-and-relations presentations of algebras.

Free presentations (no relations) support exact enumeration through the
doctrine's engine; presented algebras are probed against finite models,
where the hom set is the solution list of the relations as constraints
(`search.solve`).  A relation is evaluated by its shape's kernel: its
operations, with the generators numbered in first-occurrence order,
compiled once per `homs_into` call into a closure that reads the
model's tables with no environment and no term walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DoctrineMismatch,
    SortMismatch,
    UnboundVariable,
    UnknownSymbol,
    UnsupportedDoctrine,
)
from .search import solve
from .signature import (
    Context,
    Doctrine,
    EqResult,
    Sort,
    Term,
    Var,
    enumerate_terms,
    print_term,
    typecheck,
)


@dataclass(frozen=True)
class AlgebraPresentation:
    doctrine: Doctrine
    generators: dict
    relations: tuple = ()
    name: str = ""

    def context(self) -> Context:
        vars_ = []
        for sort in sorted(self.generators, key=lambda s: s.name):
            for g in self.generators[sort]:
                vars_.append(Var(g, sort))
        return Context(tuple(vars_))

    def gen_count(self) -> int:
        return sum(len(v) for v in self.generators.values())

    def contains(self, term: Term) -> bool:
        try:
            typecheck(term, self.context(), self.doctrine)
            return True
        except (UnboundVariable, SortMismatch, UnknownSymbol):
            return False

    def equal(self, t1: Term, t2: Term) -> EqResult:
        if not self.relations and self.doctrine.exact:
            return self.doctrine.engine.equal(t1, t2)
        return EqResult.UNKNOWN

    def enumerate(self, sort: Sort, bound: int) -> list[Term]:
        if self.relations or not self.doctrine.exact:
            raise UnsupportedDoctrine(
                "bounded enumeration needs a free presentation over an exact engine"
            )
        return enumerate_terms(self.context(), sort, self.doctrine, bound)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generators": {
                s.name: list(gs) for s, gs in sorted(
                    self.generators.items(), key=lambda p: p[0].name)
            },
            "relations": [
                [print_term(l), print_term(r)] for l, r in self.relations
            ],
        }


def free_presentation(doctrine: Doctrine, generators: dict, name: str = "") -> AlgebraPresentation:
    gens = {s: tuple(gs) for s, gs in generators.items() if gs}
    return AlgebraPresentation(doctrine, gens, (), name)


def homs_into(P: AlgebraPresentation, alg) -> list[dict]:
    """All generator assignments into a finite algebra satisfying every
    relation, in lexicographic order of the generators' values.
    Assignments map generator names to carrier elements.  The algebra
    must be over P's doctrine (the same object or the same name), or
    `DoctrineMismatch` is raised.

    A relation with a bare generator on one side forces that generator
    from the other side's value; any other relation is checked once its
    generators are fixed (`search.solve`).  Each relation is evaluated
    by the kernel of its shape (`_shape`, `_kernel`), a closure over
    the algebra's tables built once per distinct shape and call, so
    relations of one shape share one function, and `solve` one image
    table for their arcs.
    """
    if P.doctrine is not alg.doctrine and P.doctrine.name != alg.doctrine.name:
        raise DoctrineMismatch(
            f"presentation over {P.doctrine.name} cannot map into "
            f"an algebra over {alg.doctrine.name}"
        )
    gens = P.context().vars
    index = {g.name: i for i, g in enumerate(gens)}
    kernels: dict = {}
    constraints = []
    for lhs, rhs in P.relations:
        if not isinstance(rhs, Var):
            lhs, rhs = rhs, lhs
        number: dict = {}
        if isinstance(rhs, Var):
            shape, target = (_shape(lhs, number),), index[rhs.name]
        else:
            shape, target = (_shape(lhs, number), _shape(rhs, number)), None
        fn = kernels.get(shape)
        if fn is None:
            fn = kernels[shape] = _kernel(alg.tables, shape)
        constraints.append((fn, tuple([index[n] for n in number]), target))
    domains = [alg.carrier(g.sort) for g in gens]
    return [dict(zip(index, values)) for values in solve(domains, constraints)]


def _shape(term: Term, number: dict):
    """`term` with each generator replaced by its number in `number`,
    which numbers generators in first-occurrence order and is extended
    here: a generator is an int, op(t1, ..., tn) the tuple (op name,
    shape of t1, ..., shape of tn)."""
    if isinstance(term, Var):
        return number.setdefault(term.name, len(number))
    return (term.op.name, *[_shape(a, number) for a in term.args])


def _kernel(tables: dict, shape: tuple):
    """The function of the generator values, in their numbered order,
    that `solve` calls for a relation of this shape: the value of the
    one side of a `(side,)` shape, or whether the two sides of a
    `(lhs, rhs)` shape agree."""
    if len(shape) == 2:
        left, right = _evaluator(tables, shape[0]), _evaluator(tables, shape[1])
        return lambda *vals: left(vals) == right(vals)
    (side,) = shape
    if side.__class__ is tuple and side[1:] == tuple(range(len(side) - 1)):
        table = tables[side[0]]  # one operation on the generators in order
        return lambda *vals: table[vals]
    value = _evaluator(tables, side)
    return lambda *vals: value(vals)


def _evaluator(tables: dict, shape):
    """The function from the tuple of generator values to the value of
    one side's shape, reading the operation tables directly."""
    if shape.__class__ is int:
        return itemgetter(shape)
    name, *args = shape
    table = tables[name]
    if not args:
        constant = table[()]
        return lambda vals: constant
    if all(a.__class__ is int for a in args):
        if len(args) == 1:
            (i,) = args
            return lambda vals: table[(vals[i],)]
        pick = itemgetter(*args)
        return lambda vals: table[pick(vals)]
    parts = [_evaluator(tables, a) for a in args]
    return lambda vals: table[tuple([part(vals) for part in parts])]
