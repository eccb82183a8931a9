"""Finite strict algebras in sets.

A FiniteAlgebra is a carrier per sort plus a total operation table per
symbol.  Checks: the defining equations (exhaustively), the two
structure-map laws (evaluation factors through normal forms), strict
product preservation of the induced functor, and the per-sort
free/forgetful adjunction bijection.  Homomorphisms are enumerated by
propagating operation tables as constraints (`search.solve`), not by
walking every family of carrier maps.

`evaluate` checks an environment against the carriers once, on entry,
and then walks the term unchecked (`_value`); the checks here build
their environments from the carriers and call `_value` directly.  A
table that leaves its carrier would make that walk fail with a bare
KeyError, so `check_monad_laws` validates the tables on entry, and
`check_equations` and `enumerate_homs` validate them when a lookup
misses; either way the error is `ElementNotInCarrier`.  A target value
of `enumerate_homs` outside its carrier would fail a constraint, not a
lookup, so it checks the target's values on entry.
`check_monad_laws` flattens on the engine's values: it binds the value
of an outer term's normal form to the values of the inner terms
(`Engine.bind`), the substitution of the free-algebra monad, and
evaluates the result by folding it with the tables (`Engine.fold`, a
catamorphism over the canonical term that builds no term).  Its memos
have four scopes: the values of outer subterms and the evaluation of
each distinct bound value (per target sort) last for one call; the
composed values of outer subterms, one per evaluation class of the
inner values, last for one slot shape; the flattenings of each distinct
normal form last for one (slot shape, target sort).  The outer terms
themselves, with their normal forms and the slots each normal form
uses, depend on neither the tables nor the carriers, so they last as
long as the doctrine: `Doctrine.memo` holds one entry per (slot shape,
target sort, depth), and the algebras of one doctrine enumerate them
once.  No memo is kept on the algebra, whose tables may change between
calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .diagram import DiagramOnTruncation, is_product_bijection
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
    enumerate_values,
    print_term,
)
from .theory_cat import TheoryMorphism, TheoryObject, generating_morphisms, objects_up_to


class FiniteAlgebra:
    def __init__(self, doctrine: Doctrine, carriers: dict, tables: dict, name: str = ""):
        self.doctrine = doctrine
        self.carriers = {s: tuple(v) for s, v in carriers.items()}
        self.tables = {op: dict(t) for op, t in tables.items()}
        self.name = name or "model"
        self._validate()

    def _validate(self):
        for s in self.doctrine.sorts:
            if s not in self.carriers:
                raise InvalidParameter(f"{self.name}: missing carrier for sort {s.name}")
            seen = set()
            for e in self.carriers[s]:
                if e in seen:
                    raise InvalidParameter(
                        f"{self.name}: carrier of sort {s.name} repeats element {e!r}"
                    )
                seen.add(e)
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


def evaluate(alg: FiniteAlgebra, term: Term, env: dict):
    """The value of `term` in `alg`, with variables read from `env`.

    Every variable of `term` must be bound in `env` to an element of its
    sort's carrier.  The bindings are checked once, on entry, in
    left-to-right order, so the first bad variable raises
    `UnboundVariable` or `ElementNotInCarrier`; the walk that follows
    checks nothing.
    """
    _check_env(alg, term, env)
    return _value(alg, term, env)


def _check_env(alg: FiniteAlgebra, term: Term, env: dict):
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariable(f"no value for variable {term.name!r}")
        val = env[term.name]
        if val not in alg.carriers[term.sort]:
            raise ElementNotInCarrier(f"{val!r} not in carrier of {term.sort.name}")
    else:
        for a in term.args:
            _check_env(alg, a, env)


def _value(alg: FiniteAlgebra, term: Term, env: dict):
    """`evaluate` without the checks, for an `env` that binds every
    variable of `term` to an element of its carrier."""
    if isinstance(term, Var):
        return env[term.name]
    return alg.tables[term.op.name][tuple([_value(alg, a, env) for a in term.args])]


def check_equations(alg: FiniteAlgebra) -> list:
    """Exhaustive check of the doctrine's equations; returns the list of
    (equation, assignment) violations.  A table that leaves its carrier
    raises the typed error of `FiniteAlgebra._validate`."""
    bad = []
    try:
        for eq in alg.doctrine.equations:
            sorts = [v.sort for v in eq.context.vars]
            names = [v.name for v in eq.context.vars]
            for combo in itertools.product(*(alg.carriers[s] for s in sorts)):
                env = dict(zip(names, combo))
                if _value(alg, eq.lhs, env) != _value(alg, eq.rhs, env):
                    bad.append((eq, env))
    except KeyError:
        # validated only on failure: the normal path stays check-free
        alg._validate()
        raise
    return bad


def _carrier_context(alg: FiniteAlgebra):
    """One variable per carrier element, with the element as its value."""
    vars_, env = [], {}
    for s in sorted(alg.carriers, key=lambda x: x.name):
        for e in alg.carriers[s]:
            v = Var(f"c_{s.name}_{e}", s)
            vars_.append(v)
            env[v.name] = e
    return Context(tuple(vars_)), env


_MISSING = object()  # memo miss; a carrier element may be None
_MIXED = object()  # flattenings that differ inside one evaluation class

INNER_CAP, OUTER_CAP = 12, 160  # law-check terms per sort, per (slot shape, target)


def check_monad_laws(alg: FiniteAlgebra, depth: int = 3) -> list:
    """The two structure-map laws on the free algebra over the carrier.

    (i) unit: evaluating a generator variable returns the element;
    (ii) associativity shadow: substituting free-algebra elements into a
    term and renormalizing evaluates to the same thing as evaluating the
    outer term on the elements' values.  Fails exactly when evaluation
    does not factor through normal forms, e.g. on faulted tables.  The
    tables are validated on entry, so an entry outside its carrier
    raises `ElementNotInCarrier` even when no term reaches it.

    The outer terms have at most depth - 1 operation nodes, so depth 1
    checks only the slot variables, which no table can fail (so the
    `monad-laws` verb answers unknown below depth 2), and a depth below
    1 raises `InvalidParameter`.

    The inner elements are the engine's values (normal forms) of each
    sort, each evaluated once per call by folding it with the tables,
    which walks its canonical term without building it; an inner term is
    rendered only when a failure names it.  Outer terms with the same
    normal form have the same flattened normal forms, since the engine's
    values form the free algebra: NF(outer[asg]) = NF(NF(outer)[asg]).
    So for each (slot shape, target sort) each distinct normal form is
    bound once per assignment of inner values to the slots it uses
    (normalization never adds a variable; a fold that reads no table
    finds them), and each distinct bound value is folded once per call
    and target.  The outer terms, their normal forms and used slots are
    kept in `doctrine.memo` (`_outer_terms`), so on a doctrine that has
    seen the (slot shape, target, depth) before, the check enumerates
    no outer term and binds no outer subterm; otherwise the value of an
    outer term takes one bind per distinct subterm per call.

    The composed side depends on the inner values only through their
    evaluations, so each outer subterm is evaluated once per slot shape
    on every evaluation class (distinct tuple of inner evaluations), one
    table lookup per class.  An outer term whose composed values match
    its normal form's flattenings, reduced to one value per class or
    "mixed" where they differ inside a class, cannot fail; any other is
    compared combination by combination, so the failures, their order
    and the stop after more than 20 are those of the memo-free check.
    """
    if depth < 1:
        raise InvalidParameter(f"monad-law depth must be at least 1, not {depth}")
    alg._validate()
    failures = []
    ctx, env = _carrier_context(alg)
    for s in sorted(alg.carriers, key=lambda x: x.name):
        for e in alg.carriers[s]:
            if evaluate(alg, Var(f"c_{s.name}_{e}", s), env) != e:
                failures.append({"law": "unit", "sort": s.name, "element": e})
    engine = alg.doctrine.engine
    bind, fold, tables = engine.bind, engine.fold, alg.tables

    def var(v):
        return env[v.name]

    def node(op, args):
        return tables[op.name][args]

    inner: dict[Sort, list] = {}  # engine values
    inner_evals: dict[Sort, list] = {}  # their elements of the algebra
    for s in alg.doctrine.sorts:
        inner[s] = enumerate_values(ctx, s, alg.doctrine, max(1, depth - 1))[:INNER_CAP]
        inner_evals[s] = [fold(v, s, var, node) for v in inner[s]]
    generic = engine.generic
    values = {}  # outer subterm -> its engine value

    def value(t):
        v = values.get(t)
        if v is None:
            if t.__class__ is Var:
                v = t
            else:
                element, slot_names = generic[t.op]
                v = bind(element, dict(zip(slot_names, [value(a) for a in t.args])),
                         t.op.codomain)
            values[t] = v
        return v

    sorts = sorted(alg.doctrine.sorts, key=lambda s: s.name)
    folded: dict[Sort, dict] = {s: {} for s in sorts}  # target -> {bound value: element}
    slot_shapes = [(s,) for s in sorts] + list(itertools.product(sorts, repeat=2))
    for shape in slot_shapes:
        names = [f"w{i+1}" for i in range(len(shape))]
        slots = Context(tuple(Var(n, s) for n, s in zip(names, shape)))
        combos = list(itertools.product(*(inner[s] for s in shape)))
        # the evaluation classes: the distinct tuples of inner evaluations,
        # numbered in order of first occurrence
        class_index: dict[tuple, int] = {}
        class_of = [
            class_index.setdefault(evals, len(class_index))
            for evals in itertools.product(*(inner_evals[s] for s in shape))
        ]
        classes = list(class_index)
        composed = {  # outer subterm -> its evaluation per class
            v: tuple([evals[i] for evals in classes]) for i, v in enumerate(slots.vars)
        }

        def composed_of(t):
            r = composed.get(t)
            if r is None:
                table = tables[t.op.name]
                if t.args:
                    r = tuple([table[a] for a in zip(*[composed_of(a) for a in t.args])])
                else:
                    r = (table[()],) * len(classes)
                composed[t] = r
            return r

        # indices of some slots -> their inner values per combo, the
        # distinct ones with their environments, and the distinct pairs
        # (class, their inner values) as two parallel lists
        keys_by_slots: dict[tuple, tuple] = {}
        for target in sorts:
            memo = folded[target]
            by_nf = {}  # normal form -> (evaluation per inner values, per class, keys)
            for outer, nf, idx in _outer_terms(alg.doctrine, slots, target, depth, value):
                lhs_of = by_nf.get(nf)
                if lhs_of is None:
                    keys = keys_by_slots.get(idx)
                    if keys is None:
                        per_combo = [tuple([vals[i] for i in idx]) for vals in combos]
                        used_names = [names[i] for i in idx]
                        pairs = dict.fromkeys(zip(class_of, per_combo))
                        keys = keys_by_slots[idx] = (
                            per_combo,
                            [(key, dict(zip(used_names, key)))
                             for key in dict.fromkeys(per_combo)],
                            [c for c, _ in pairs],
                            [key for _, key in pairs],
                        )
                    per_combo, distinct, pair_classes, pair_keys = keys
                    by_values = {}  # the used slots' inner values -> evaluated flattening
                    for key, slot_env in distinct:
                        bound = bind(nf, slot_env, target)
                        lhs = memo.get(bound, _MISSING)
                        if lhs is _MISSING:
                            lhs = memo[bound] = fold(bound, target, var, node)
                        by_values[key] = lhs
                    flat = [by_values[k] for k in pair_keys]
                    per_class = dict(zip(pair_classes, flat))  # keys in class order
                    if len(set(zip(pair_classes, flat))) > len(per_class):
                        for c, lhs in zip(pair_classes, flat):
                            if per_class[c] != lhs:
                                per_class[c] = _MIXED
                    lhs_of = by_nf[nf] = (by_values, tuple(per_class.values()), per_combo)
                by_values, per_class, per_combo = lhs_of
                rhs_of = composed_of(outer)
                if rhs_of == per_class:
                    continue  # no combination of inner values can fail
                for vals, c, key in zip(combos, class_of, per_combo):
                    lhs, rhs = by_values[key], rhs_of[c]
                    if lhs != rhs:
                        failures.append({
                            "law": "assoc",
                            "outer": print_term(outer),
                            "inner": [
                                print_term(engine.render(v, s)) for v, s in zip(vals, shape)
                            ],
                            "flattened": lhs,
                            "composed": rhs,
                        })
                        if len(failures) > 20:
                            return failures
    return failures


def _outer_terms(doctrine: Doctrine, slots: Context, target: Sort, depth: int, value) -> tuple:
    """The law check's outer terms of `target` over the slot variables,
    each with its normal form and the indices of the slots that normal
    form uses, as (outer, normal form, indices) in enumeration order.
    None of it depends on an algebra, so it is kept in `doctrine.memo`,
    one entry per (slot shape, target, depth); `value` gives the normal
    forms on a miss."""
    shape = tuple([v.sort for v in slots.vars])
    key = ("monad_laws", shape, target, depth)
    rows = doctrine.memo.get(key)
    if rows is None:
        names = [v.name for v in slots.vars]
        fold, used_of = doctrine.engine.fold, {}
        rows = []
        for outer in enumerate_raw_terms(slots, target, doctrine, depth - 1, cap=OUTER_CAP):
            nf = value(outer)
            idx = used_of.get(nf)
            if idx is None:
                used = fold(nf, target, _var_names, _union_names)  # reads no table
                idx = used_of[nf] = tuple([i for i, n in enumerate(names) if n in used])
            rows.append((outer, nf, idx))
        rows = doctrine.memo[key] = tuple(rows)
    return rows


def _var_names(v):
    return frozenset((v.name,))


def _union_names(op, args):
    return frozenset().union(*args)


class AlgebraFunctor:
    """The product-preserving functor induced by a finite algebra:
    objects go to carrier products, and a morphism acts by evaluating
    its values, each folded with the operation tables (`Engine.fold`,
    which builds no term) in the environment of an element's
    coordinates.  Each morphism's table is built once."""

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
        table = self._maps.get(m)
        if table is None:
            tables, engine, env = self.alg.tables, m.engine, {}

            def var(v):
                return env[v.name]

            def node(op, args):
                return tables[op.name][args]

            slots = list(zip(m.values, m.target.sorts))
            table = self._maps[m] = {}
            for x in self.value(m.source):
                env.update(zip(m.source.names, x))
                table[x] = tuple([
                    var(v) if v.__class__ is Var else engine.fold(v, s, var, node)
                    for v, s in slots
                ])
        return table


def as_functor(alg: FiniteAlgebra, object_bound: int = 2, term_bound: int = 2) -> DiagramOnTruncation:
    fn = AlgebraFunctor(alg, object_bound)
    values = {obj: fn.value(obj) for obj in objects_up_to(alg.doctrine, object_bound)}
    arrows = {}
    for m in generating_morphisms(alg.doctrine, object_bound):
        arrows[m] = fn.morphism_map(m)
    return DiagramOnTruncation(alg.doctrine, object_bound, term_bound, values, arrows)


def check_product_preservation(X: DiagramOnTruncation):
    """(strict, failures): bijectivity of every canonical map
    `X.comparison(obj)` into the product of size-one values, including
    the terminal condition.  A failure's detail says when a projection
    table is missing or partial."""
    failures = []
    for obj in X.objects():
        if obj.size == 1:
            continue
        values = X.value(obj)
        factors = [X.value(TheoryObject.of(s)) for s in obj.sorts]
        detail = {"object": obj.key(), "value": len(values),
                  "product": math.prod(map(len, factors))}
        images = X.comparison(obj)
        if images is None:
            detail["error"] = "projection tables missing"
        elif any(x not in images for x in values):
            detail["error"] = "projection tables partial"
        elif is_product_bijection([images[x] for x in values], factors):
            continue
        failures.append(detail)
    return (not failures), failures


def enumerate_homs(A: FiniteAlgebra, B: FiniteAlgebra) -> list[Homomorphism]:
    """All homomorphisms A -> B, in lexicographic order of their images
    (sorts by name, elements in carrier order).  Each operation entry
    op(args) = a of A is the constraint h(a) = op_B(h(args)) for
    `search.solve`.  A table that leaves its carrier raises the typed
    error of `FiniteAlgebra._validate`."""
    if A.doctrine is not B.doctrine and A.doctrine.name != B.doctrine.name:
        raise DoctrineMismatch("homomorphisms need a common doctrine")
    sorts = sorted(A.carriers, key=lambda s: s.name)
    unknowns = [(s, a) for s in sorts for a in A.carriers[s]]
    index = {u: i for i, u in enumerate(unknowns)}
    domains = [B.carriers[s] for s, _ in unknowns]
    out = []
    try:
        # a B value outside its carrier would only fail a constraint and
        # drop homomorphisms silently, so B's values are checked on entry
        for op in B.doctrine.ops:
            if not set(B.tables[op.name].values()).issubset(B.carriers[op.codomain]):
                B._validate()
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
        for values in solve(domains, constraints):
            image = dict(zip(unknowns, values))
            out.append(Homomorphism(A, B, tuple(
                (s, tuple(sorted(((a, image[(s, a)]) for a in A.carriers[s]),
                                 key=lambda p: str(p[0]))))
                for s in sorts
            )))
    except KeyError:
        # validated only on failure: the normal path stays check-free
        A._validate()
        B._validate()
        raise
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
    transposes = [tuple(h[y] for y in Y) for h in alg_side]
    return is_product_bijection(transposes, [X.carriers[sort]] * len(Y))
