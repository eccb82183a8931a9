"""Sorted signatures, terms, substitution, and equational presentations.

Terms are interned trees; every node knows its sort, so most operations
need no explicit context.  A doctrine bundles a presentation (sorts,
operation symbols, equations) with a normal-form engine.  Built-in
doctrines carry exact engines (see `engines` / `builtins`), and so does a
parsed doctrine with no operations and no equations (`sorts_only`); any
other parsed doctrine gets the bounded generic engine, which decides
equality only up to a budget.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import (
    InvalidParameter,
    MissingAssignment,
    SortMismatch,
    UnboundVariable,
    UnknownSymbol,
    UnsupportedDoctrine,
)


class Interned:
    """Base of the hash-consed value types (Filliatre & Conchon,
    *Type-safe modular hash-consing*, 2006): constructing one from the
    fields of a live instance returns that instance, so equality is
    identity and hashing is by address.  Each subclass keeps its own
    weak-value table, so an instance nothing else references is freed."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = weakref.WeakValueDictionary()

    @classmethod
    def _intern(cls, key, *values):
        """A new instance under the canonical `key`, its slots set from
        `values` in `__slots__` order.  Each `__new__` tries
        `_table.get(key)` first and calls this only on a miss, so a hit
        builds nothing (instances are always true)."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            setattr(obj, name, value)
        cls._table[key] = obj
        return obj

    def __reduce__(self):
        """Copies and pickles rebuild through the constructor, which
        returns the live instance; its arguments are the slots, in order."""
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Sort(Interned):
    """A type tag for algebra elements.  Operad doctrines tag sorts with
    their arity level; other doctrines leave `level` unset.

    Sorts, operation symbols, variables and terms are interned, so the
    hom tables, arrow maps and engine values that compare them
    constantly compare by identity.
    """

    __slots__ = ("name", "level")

    def __new__(cls, name: str, level: int | None = None):
        key = (name, level)
        return cls._table.get(key) or cls._intern(key, name, level)

    def __repr__(self):
        return f"Sort({self.name!r})"

    def __str__(self):
        return self.name


class OpSymbol(Interned):
    __slots__ = ("name", "domain", "codomain")

    def __new__(cls, name: str, domain: tuple, codomain: Sort):
        domain = tuple(domain)
        key = (name, domain, codomain)
        return cls._table.get(key) or cls._intern(key, name, domain, codomain)

    @property
    def arity(self) -> int:
        return len(self.domain)

    def __repr__(self):
        return f"OpSymbol({self.name!r})"

    def __str__(self):
        dom = " ".join(s.name for s in self.domain)
        return f"{self.name} : {dom} -> {self.codomain.name}"


class Var(Interned):
    __slots__ = ("name", "sort")

    def __new__(cls, name: str, sort: Sort):
        key = (name, sort)
        return cls._table.get(key) or cls._intern(key, name, sort)

    # perfbench's tracer wraps `__eq__` in the class's own __dict__, so
    # the identity equality every Interned class inherits is named here.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Var({self.name!r})"


class App(Interned):
    __slots__ = ("op", "args")

    def __new__(cls, op: OpSymbol, args: tuple = ()):
        args = tuple(args)
        key = (op, args)
        return cls._table.get(key) or cls._intern(key, op, args)

    # perfbench's tracer wraps `__init__` and `__eq__` in the class's own
    # __dict__; once wrapped, object's `__init__` rejects the arguments.
    def __init__(self, op: OpSymbol, args: tuple = ()):
        pass

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def sort(self) -> Sort:
        return self.op.codomain

    def __repr__(self):
        return f"App({self.op.name!r}, {self.args!r})"


Term = Var | App


def term_size(term: Term) -> int:
    """Number of operation nodes (constants included, variables free)."""
    if isinstance(term, Var):
        return 0
    return 1 + sum(term_size(a) for a in term.args)


def term_vars(term: Term) -> dict[str, Var]:
    """Free variables in first-occurrence order."""
    out: dict[str, Var] = {}

    def walk(t):
        if isinstance(t, Var):
            out.setdefault(t.name, t)
        else:
            for a in t.args:
                walk(a)

    walk(term)
    return out


def print_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return term.op.name
    return f"{term.op.name}({','.join(print_term(a) for a in term.args)})"


@dataclass(frozen=True)
class Context:
    """An ordered list of distinct typed variables."""

    vars: tuple[Var, ...] = ()

    def __post_init__(self):
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise InvalidParameter(f"duplicate variable names in context: {names}")

    @classmethod
    def of(cls, *pairs: tuple[str, Sort]) -> "Context":
        return cls(tuple(Var(n, s) for n, s in pairs))

    def lookup(self, name: str) -> Var | None:
        for v in self.vars:
            if v.name == name:
                return v
        return None

    def sorts(self) -> tuple[Sort, ...]:
        return tuple(v.sort for v in self.vars)

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def __len__(self):
        return len(self.vars)

    def __iter__(self):
        return iter(self.vars)


@dataclass(frozen=True)
class Equation:
    context: Context
    lhs: Term
    rhs: Term
    name: str = ""

    def __str__(self):
        binder = ",".join(f"{v.name}:{v.sort.name}" for v in self.context)
        return f"({binder}) {print_term(self.lhs)} = {print_term(self.rhs)}"


class EqResult(Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


class Engine:
    """Normal-form engine interface: the free algebra of a doctrine, as
    values.

    An engine supplies five hooks.  `value` maps a term to its value,
    an element of the free algebra on the term's variables; `bind`
    substitutes values for the variables of a value (the free-algebra
    monad's Kleisli extension, so composing morphisms of the theory
    category is binding); `fold` walks a value along its canonical term,
    `var(v)` at each variable and `node(op, args)` at each operation;
    `value_size` measures a value; and `enumerate_values` lists the
    values of a sort up to a size bound in a fixed order.  Values are
    hashable, and the value of a lone variable is that `Var` in every
    engine, so a morphism made of variables needs no engine
    (`theory_cat.TheoryMorphism`).  `render` (the fold that builds the
    term), normalization, size, equality and substitution are derived
    here.

    This base class is the syntactic free algebra: a value is the term
    itself, `bind` is `substitute` and `fold` walks the term.  The
    generic engine keeps it and overrides `equal`: it only proves
    equalities (equality saturation on an e-graph, up to a round budget
    and a node budget) and never separates terms, so it has no normal
    forms.  Exact engines (`engines.ExactEngine`) replace the hooks by
    values whose equality is equality in the free algebra: each states
    one generic element per operation, the value of op(x1, ..., xn) on
    slot variables, plus `bind`, `fold`, `value_size` and
    `enumerate_values`, and derives `value` by binding each operation's
    generic element to its arguments' values.
    """

    exact = False

    def value(self, term: Term):
        """The value of `term`; each variable is its own atom."""
        return term

    def bind(self, value, env: Mapping, sort: Sort):
        """The value of `sort` that replaces every variable atom of
        `value` by `env[name]` (name -> value)."""
        return substitute(value, env)

    def fold(self, value, sort: Sort, var, node):
        """The catamorphism over the canonical term of a value of `sort`:
        `var(v)` at each variable `v` and `node(op, args)` at each
        operation, `args` the tuple of its folded arguments."""
        if isinstance(value, Var):
            return var(value)
        return node(value.op, tuple([self.fold(a, a.sort, var, node) for a in value.args]))

    def render(self, value, sort: Sort) -> Term:
        """The canonical term of a value of `sort`."""
        return self.fold(value, sort, lambda v: v, App)

    def value_size(self, value, sort: Sort) -> int:
        """The size of a value of `sort` (word length, node count, ...);
        the syntactic size of a term."""
        return term_size(value)

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        """Every value of `sort` over `context` of size <= bound."""
        raise UnsupportedDoctrine("doctrine does not support exact enumeration")

    def normalize(self, term: Term) -> Term:
        return self.render(self.value(term), term.sort)

    def size(self, term: Term) -> int:
        """Size of the term's normal form; the syntactic size for
        engines without normal forms."""
        return self.value_size(self.value(term), term.sort)

    def equal(self, t1: Term, t2: Term, budget: int = 2) -> EqResult:
        return EqResult.EQUAL if self.normalize(t1) == self.normalize(t2) else EqResult.DISTINCT

    def substitute(self, terms, assignment: Mapping[str, Term]) -> tuple:
        """Normal forms of `terms` after simultaneous substitution: each
        term's value bound to the assigned terms' values, rendered,
        without building the substituted syntax.  Part of the engine's
        public interface, the term-level counterpart of `bind` for
        callers that hold terms rather than values; the library itself
        composes on values and does not call it."""
        env = {name: self.value(t) for name, t in assignment.items()}
        try:
            return tuple([
                self.render(self.bind(self.value(t), env, t.sort), t.sort) for t in terms
            ])
        except KeyError:
            for t in terms:
                for name in term_vars(t):
                    if name not in env:
                        raise MissingAssignment(
                            f"no assignment for variable {name!r}"
                        ) from None
            raise


@dataclass(frozen=True, eq=False)
class Doctrine:
    """A sorted equational presentation plus its normal-form engine.

    `memo` holds the doctrine's pure truncation results, built once
    each: the generating morphisms per object bound
    (`theory_cat.generating_morphisms`), the representable diagrams per
    (representable, object bound, term bound)
    (`diagram.representable_diagram`, also read by
    `rigidify.surjectivity_step`, which glues copies of the product
    object's representable), per term bound the composites met by
    `DiagramOnTruncation.arrow_closure`, and per (slot shape, target
    sort, depth) the outer terms of `models.check_monad_laws` with their
    normal forms and used slots.  It is created with the
    doctrine and freed with it, and each entry is bounded by the finite
    truncation asked for."""

    name: str
    sorts: tuple[Sort, ...]
    ops: tuple[OpSymbol, ...]
    equations: tuple[Equation, ...]
    engine: Engine = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        sort_names = [s.name for s in self.sorts]
        if len(set(sort_names)) != len(sort_names):
            raise InvalidParameter(f"duplicate sort names in doctrine {self.name}")
        op_names = [o.name for o in self.ops]
        if len(set(op_names)) != len(op_names):
            raise InvalidParameter(f"duplicate op names in doctrine {self.name}")
        known = set(self.sorts)
        for op in self.ops:
            for s in (*op.domain, op.codomain):
                if s not in known:
                    raise UnknownSymbol(f"op {op.name} uses unknown sort {s.name}")
        for eq in self.equations:
            ls = typecheck(eq.lhs, eq.context, self)
            rs = typecheck(eq.rhs, eq.context, self)
            if ls != rs:
                raise SortMismatch(
                    f"equation {eq.name or eq}: sides have sorts {ls.name} != {rs.name}"
                )

    def sort(self, name: str) -> Sort:
        for s in self.sorts:
            if s.name == name:
                return s
        raise UnknownSymbol(f"no sort {name!r} in doctrine {self.name}")

    def op(self, name: str) -> OpSymbol:
        for o in self.ops:
            if o.name == name:
                return o
        raise UnknownSymbol(f"no op {name!r} in doctrine {self.name}")

    def has_op(self, name: str) -> bool:
        return any(o.name == name for o in self.ops)

    @property
    def exact(self) -> bool:
        return self.engine.exact

    @property
    def sorts_only(self) -> bool:
        """No operations and no equations: every morphism is a variable
        map of size 0, so bounded hom enumeration is complete at every
        term bound, and each morphism of a truncation is a generating arrow."""
        return not self.ops and not self.equations


def typecheck(term: Term, context: Context, doctrine: Doctrine) -> Sort:
    """Validate a term against a context and return its sort."""
    if isinstance(term, Var):
        bound = context.lookup(term.name)
        if bound is None:
            raise UnboundVariable(f"variable {term.name!r} not in context")
        if bound.sort != term.sort:
            raise SortMismatch(
                f"variable {term.name!r} has sort {term.sort.name}, "
                f"context declares {bound.sort.name}",
                expected=bound.sort,
                found=term.sort,
            )
        return term.sort
    if term.op not in doctrine.ops:
        raise UnknownSymbol(f"op {term.op.name!r} does not belong to doctrine {doctrine.name}")
    if len(term.args) != term.op.arity:
        raise SortMismatch(
            f"op {term.op.name} expects {term.op.arity} arguments, got {len(term.args)}"
        )
    for i, (arg, want) in enumerate(zip(term.args, term.op.domain)):
        got = typecheck(arg, context, doctrine)
        if got != want:
            raise SortMismatch(
                f"argument {i + 1} of {term.op.name}: expected {want.name}, found {got.name}",
                slot=i + 1,
                expected=want,
                found=got,
            )
    return term.op.codomain


def substitute(term: Term, assignment: Mapping[str, Term]) -> Term:
    """Simultaneous substitution; every free variable must be assigned."""
    if isinstance(term, Var):
        if term.name not in assignment:
            raise MissingAssignment(f"no assignment for variable {term.name!r}")
        repl = assignment[term.name]
        rsort = repl.sort
        if rsort != term.sort:
            raise SortMismatch(
                f"assignment for {term.name!r} has sort {rsort.name}, expected {term.sort.name}",
                expected=term.sort,
                found=rsort,
            )
        return repl
    return App(term.op, tuple(substitute(a, assignment) for a in term.args))


def normalize(term: Term, doctrine: Doctrine) -> Term:
    return doctrine.engine.normalize(term)


def terms_equal(t1: Term, t2: Term, doctrine: Doctrine, budget: int = 2) -> EqResult:
    return doctrine.engine.equal(t1, t2, budget=budget)


def enumerate_values(context: Context, sort: Sort, doctrine: Doctrine, bound: int) -> list:
    """All distinct values of `sort` with size <= bound, in a
    deterministic order.  Exact engines only."""
    if not doctrine.exact:
        raise UnsupportedDoctrine(
            f"doctrine {doctrine.name} has no exact engine; cannot enumerate terms"
        )
    return doctrine.engine.enumerate_values(context, sort, bound)


def enumerate_terms(context: Context, sort: Sort, doctrine: Doctrine, bound: int) -> list[Term]:
    """All distinct normal forms of `sort` with normal-form size <= bound,
    in a deterministic order: the terms of `enumerate_values`."""
    values = enumerate_values(context, sort, doctrine, bound)
    render = doctrine.engine.render
    return [render(v, sort) for v in values]


def enumerate_raw_terms(
    context: Context, sort: Sort, doctrine: Doctrine, nodes: int, cap: int | None = None
) -> list[Term]:
    """All syntactic terms with at most `nodes` operation nodes.

    Unlike `enumerate_terms` this works for any doctrine and does not
    deduplicate modulo equations; used by law checks and fuzzing.
    """
    by_sort_nodes: dict[tuple[Sort, int], list[Term]] = {}

    def upto(s: Sort, n: int) -> list[Term]:
        key = (s, n)
        if key in by_sort_nodes:
            return by_sort_nodes[key]
        out: list[Term] = [v for v in context.vars if v.sort == s]
        if n >= 1:
            for op in doctrine.ops:
                if op.codomain != s:
                    continue
                budget = n - 1
                if op.arity == 0:
                    out.append(App(op))
                    continue
                for combo in _arg_combos(op.domain, budget, upto):
                    out.append(App(op, combo))
        by_sort_nodes[key] = out
        return out

    def _arg_combos(domain, budget, rec):
        if not domain:
            yield ()
            return
        head, rest = domain[0], domain[1:]
        for h in rec(head, budget):
            used = term_size(h)
            for tail in _arg_combos(rest, budget - used, rec):
                yield (h, *tail)

    # dedupe syntactically, keep deterministic order
    unique = list(dict.fromkeys(upto(sort, nodes)))
    return unique if cap is None else unique[:cap]


def __getattr__(name):
    # builtin_doctrine logically belongs to this module's surface but
    # lives in `builtins` to keep the import graph acyclic
    if name == "builtin_doctrine":
        from .builtins import builtin_doctrine

        return builtin_doctrine
    raise AttributeError(name)
