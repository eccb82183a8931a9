"""Generators-and-relations presentations of algebras.

Free presentations (no relations) support exact enumeration through the
doctrine's engine; presented algebras are probed against finite models,
where the hom set is the solution list of the relations as constraints
(`search.solve`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SortMismatch, UnboundVariable, UnknownSymbol, UnsupportedDoctrine
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
    term_vars,
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
    Assignments map generator names to carrier elements.

    A relation with a bare generator on one side forces that generator
    from the other side's value; any other relation is checked once its
    generators are fixed (`search.solve`).
    """
    from .models import _value  # a cycle: `models` imports this module at its top

    gens = P.context().vars
    index = {g.name: i for i, g in enumerate(gens)}

    def relation(lhs, rhs):
        if not isinstance(rhs, Var):
            lhs, rhs = rhs, lhs
        if isinstance(rhs, Var):
            names = tuple(term_vars(lhs))

            def value(*vals):
                return _value(alg, lhs, dict(zip(names, vals)))

            return value, tuple(index[n] for n in names), index[rhs.name]
        names = tuple({**term_vars(lhs), **term_vars(rhs)})

        def holds(*vals):
            env = dict(zip(names, vals))
            return _value(alg, lhs, env) == _value(alg, rhs, env)

        return holds, tuple(index[n] for n in names), None

    constraints = [relation(lhs, rhs) for lhs, rhs in P.relations]
    domains = [alg.carrier(g.sort) for g in gens]
    return [dict(zip(index, values)) for values in solve(domains, constraints)]
