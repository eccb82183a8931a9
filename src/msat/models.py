"""Finite strict algebras in sets.

A FiniteAlgebra is a carrier per sort plus a total operation table per
symbol.  Checks: the defining equations (exhaustively), the two
structure-map laws (evaluation factors through normal forms), strict
product preservation of the induced functor, and the per-sort
free/forgetful adjunction bijection.  Homomorphisms are enumerated by
propagating operation tables as constraints (`search.solve`), not by
walking every family of carrier maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import DiagramOnTruncation, product_comparison
from .errors import (
    DoctrineMismatch,
    ElementNotInCarrier,
    InvalidParameter,
    UnboundVariable,
)
from .presentations import AlgebraPresentation, free_presentation, homs_into
from .search import solve
from .signature import (
    Context,
    Doctrine,
    Sort,
    Term,
    Var,
    enumerate_raw_terms,
    enumerate_terms,
    print_term,
)
from .theory_cat import TheoryMorphism, TheoryObject, generating_morphisms, objects_up_to


class FiniteAlgebra:
    def __init__(self, doctrine: Doctrine, carriers: dict, tables: dict,
                 name: str = "", validate: bool = True):
        self.doctrine = doctrine
        self.carriers = {s: tuple(v) for s, v in carriers.items()}
        self.tables = {op: dict(t) for op, t in tables.items()}
        self.name = name or "model"
        if validate:
            self._validate()

    def _validate(self):
        for s in self.doctrine.sorts:
            if s not in self.carriers:
                raise InvalidParameter(f"{self.name}: missing carrier for sort {s.name}")
        for op in self.doctrine.ops:
            table = self.tables.get(op.name)
            if table is None:
                raise InvalidParameter(f"{self.name}: missing table for op {op.name}")
            domain = list(itertools.product(*(self.carriers[s] for s in op.domain)))
            cod = set(self.carriers[op.codomain])
            for args in domain:
                if args not in table:
                    raise InvalidParameter(
                        f"{self.name}: table {op.name} undefined at {args!r}"
                    )
                if table[args] not in cod:
                    raise ElementNotInCarrier(
                        f"{self.name}: {op.name}{args!r} = {table[args]!r} not in carrier"
                    )
            if len(table) != len(domain):
                extra = set(table) - set(domain)
                raise InvalidParameter(f"{self.name}: table {op.name} has stray entries {extra}")

    def carrier(self, sort: Sort):
        return self.carriers[sort]

    def __repr__(self):
        sizes = ",".join(f"{s.name}:{len(v)}" for s, v in self.carriers.items())
        return f"FiniteAlgebra({self.name}; {sizes})"


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    components: tuple  # tuple of (Sort, mapping-as-tuple-of-pairs)

    def component(self, sort: Sort) -> dict:
        for s, pairs in self.components:
            if s == sort:
                return dict(pairs)
        raise KeyError(sort)


def evaluate(alg: FiniteAlgebra, term: Term, env: dict):
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariable(f"no value for variable {term.name!r}")
        val = env[term.name]
        if val not in alg.carriers[term.sort]:
            raise ElementNotInCarrier(f"{val!r} not in carrier of {term.sort.name}")
        return val
    args = tuple(evaluate(alg, a, env) for a in term.args)
    return alg.tables[term.op.name][args]


def check_equations(alg: FiniteAlgebra) -> list:
    """Exhaustive check of the doctrine's equations; returns the list of
    (equation, assignment) violations."""
    bad = []
    for eq in alg.doctrine.equations:
        sorts = [v.sort for v in eq.context.vars]
        names = [v.name for v in eq.context.vars]
        for combo in itertools.product(*(alg.carriers[s] for s in sorts)):
            env = dict(zip(names, combo))
            if evaluate(alg, eq.lhs, env) != evaluate(alg, eq.rhs, env):
                bad.append((eq, env))
    return bad


def validated(alg: FiniteAlgebra) -> FiniteAlgebra:
    bad = check_equations(alg)
    if bad:
        eq, env = bad[0]
        raise InvalidParameter(
            f"{alg.name}: violates {eq.name or eq} at {env!r} ({len(bad)} violations)"
        )
    return alg


def _carrier_context(alg: FiniteAlgebra):
    """One variable per carrier element, with the element as its value."""
    vars_, env = [], {}
    for s in sorted(alg.carriers, key=lambda x: x.name):
        for e in alg.carriers[s]:
            v = Var(f"c_{s.name}_{e}", s)
            vars_.append(v)
            env[v.name] = e
    return Context(tuple(vars_)), env


def check_monad_laws(alg: FiniteAlgebra, depth: int = 3, inner_cap: int = 12,
                     outer_cap: int = 160) -> list:
    """The two structure-map laws on the free algebra over the carrier.

    (i) unit: evaluating a generator variable returns the element;
    (ii) associativity shadow: substituting free-algebra elements into a
    term and renormalizing evaluates to the same thing as evaluating the
    outer term on the elements' values.  Fails exactly when evaluation
    does not factor through normal forms, e.g. on faulted tables.
    """
    failures = []
    ctx, env = _carrier_context(alg)
    for s in sorted(alg.carriers, key=lambda x: x.name):
        for e in alg.carriers[s]:
            if evaluate(alg, Var(f"c_{s.name}_{e}", s), env) != e:
                failures.append({"law": "unit", "sort": s.name, "element": e})
    inner: dict[Sort, list[Term]] = {}
    for s in alg.doctrine.sorts:
        inner[s] = enumerate_terms(ctx, s, alg.doctrine, max(1, depth - 1))[:inner_cap]
    sorts = sorted(alg.doctrine.sorts, key=lambda s: s.name)
    slot_shapes = [(s,) for s in sorts] + list(itertools.product(sorts, repeat=2))
    for shape in slot_shapes:
        slots = Context(tuple(Var(f"w{i+1}", s) for i, s in enumerate(shape)))
        for target in sorts:
            outers = enumerate_raw_terms(slots, target, alg.doctrine, depth - 1, cap=outer_cap)
            for outer in outers:
                for combo in itertools.product(*(inner[s] for s in shape)):
                    asg = {f"w{i+1}": t for i, t in enumerate(combo)}
                    flattened = alg.doctrine.engine.substitute((outer,), asg)[0]
                    lhs = evaluate(alg, flattened, env)
                    outer_env = {
                        f"w{i+1}": evaluate(alg, t, env) for i, t in enumerate(combo)
                    }
                    rhs = evaluate(alg, outer, outer_env)
                    if lhs != rhs:
                        failures.append({
                            "law": "assoc",
                            "outer": print_term(outer),
                            "inner": [print_term(t) for t in combo],
                            "flattened": lhs,
                            "composed": rhs,
                        })
                        if len(failures) > 20:
                            return failures
    return failures


class AlgebraFunctor:
    """The product-preserving functor induced by a finite algebra:
    objects go to carrier products, morphisms to term evaluation."""

    def __init__(self, alg: FiniteAlgebra, object_bound: int):
        self.alg = alg
        self.object_bound = object_bound
        self._values: dict[TheoryObject, tuple] = {}
        self._maps: dict[TheoryMorphism, dict] = {}

    def value(self, obj: TheoryObject):
        if obj not in self._values:
            self._values[obj] = tuple(
                itertools.product(*(self.alg.carriers[s] for s in obj.sorts))
            )
        return self._values[obj]

    def morphism_map(self, m: TheoryMorphism) -> dict:
        if m not in self._maps:
            table = {}
            for x in self.value(m.source):
                env = {f"v{i+1}": e for i, e in enumerate(x)}
                table[x] = tuple(evaluate(self.alg, t, env) for t in m.terms)
            self._maps[m] = table
        return self._maps[m]


def as_functor(alg: FiniteAlgebra, object_bound: int = 2, term_bound: int = 2) -> DiagramOnTruncation:
    fn = AlgebraFunctor(alg, object_bound)
    values = {obj: fn.value(obj) for obj in objects_up_to(alg.doctrine, object_bound)}
    arrows = {}
    for m in generating_morphisms(alg.doctrine, object_bound):
        arrows[m] = fn.morphism_map(m)
    return DiagramOnTruncation(alg.doctrine, object_bound, term_bound, values, arrows)


def check_product_preservation(X: DiagramOnTruncation):
    """(strict, failures): bijectivity of every canonical map into the
    product of size-one values, including the terminal condition."""
    failures = []
    for obj in X.objects():
        if obj.size == 1:
            continue
        ok, detail = product_comparison(X, obj)
        if not ok:
            failures.append(detail)
    return (not failures), failures


def enumerate_homs(A: FiniteAlgebra, B: FiniteAlgebra) -> list[Homomorphism]:
    """All homomorphisms A -> B, in lexicographic order of their images
    (sorts by name, elements in carrier order).  Each operation entry
    op(args) = a of A is the constraint h(a) = op_B(h(args)) for
    `search.solve`."""
    if A.doctrine is not B.doctrine and A.doctrine.name != B.doctrine.name:
        raise DoctrineMismatch("homomorphisms need a common doctrine")
    sorts = sorted(A.carriers, key=lambda s: s.name)
    unknowns = [(s, a) for s in sorts for a in A.carriers[s]]
    index = {u: i for i, u in enumerate(unknowns)}
    domains = [B.carriers[s] for s, _ in unknowns]
    constraints = []
    for op in A.doctrine.ops:
        def op_b(*image, table=B.tables[op.name]):
            return table[image]

        for args in itertools.product(*(A.carriers[s] for s in op.domain)):
            constraints.append((
                op_b,
                tuple(index[(s, x)] for s, x in zip(op.domain, args)),
                index[(op.codomain, A.tables[op.name][args])],
            ))
    out = []
    for values in solve(domains, constraints):
        image = dict(zip(unknowns, values))
        out.append(Homomorphism(A, B, tuple(
            (s, tuple(sorted(((a, image[(s, a)]) for a in A.carriers[s]),
                             key=lambda p: str(p[0]))))
            for s in sorts
        )))
    return out


def identity_hom(A: FiniteAlgebra) -> Homomorphism:
    sorts = sorted(A.carriers, key=lambda s: s.name)
    return Homomorphism(
        A, A, tuple((s, tuple((e, e) for e in A.carriers[s])) for s in sorts)
    )


def free_algebra(doctrine: Doctrine, generators: dict) -> AlgebraPresentation:
    """The free algebra on sorted generators, as a relation-free
    presentation exposing membership, equality, and bounded enumeration."""
    gen_map = {}
    for sort, gens in generators.items():
        if isinstance(sort, str):
            sort = doctrine.sort(sort)
        gen_map[sort] = tuple(str(g) for g in gens)
    name = "free(" + ",".join(
        f"{s.name}:{len(g)}" for s, g in sorted(gen_map.items(), key=lambda p: p[0].name)
    ) + ")"
    return free_presentation(doctrine, gen_map, name)


def adjunction_check(doctrine: Doctrine, sort: Sort, Y, X: FiniteAlgebra) -> bool:
    """The transpose from algebra maps out of the free algebra on Y (at
    the given sort) to set maps Y -> carrier must be a bijection."""
    Y = [str(y) for y in Y]
    if len(set(Y)) != len(Y):
        raise InvalidParameter("generator names must be distinct")
    P = free_algebra(doctrine, {sort: Y})
    alg_side = homs_into(P, X)
    transposes = []
    for h in alg_side:
        transposes.append(tuple(h[y] for y in Y))
    set_side = list(itertools.product(X.carriers[sort], repeat=len(Y)))
    return len(transposes) == len(set(transposes)) == len(set_side) and set(
        transposes
    ) == set(set_side)
