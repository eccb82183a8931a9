"""Sorted signatures, terms, substitution, and equational presentations.

Terms are immutable trees; every node knows its sort, so most operations
need no explicit context.  A doctrine bundles a presentation (sorts,
operation symbols, equations) with a normal-form engine.  Built-in
doctrines carry exact engines (see `engines` / `builtins`); doctrines
parsed from text default to the bounded generic engine, which decides
equality only up to a budget.
"""

from __future__ import annotations

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


class Sort:
    """A type tag for algebra elements.  Operad doctrines tag sorts with
    their arity level; other doctrines leave `level` unset.

    Terms are compared constantly (hom tables, arrow maps, normal-form
    caches), so this and the other value types below cache their hashes
    and shortcut equality on identity.
    """

    __slots__ = ("name", "level", "_hash")

    def __init__(self, name: str, level: int | None = None):
        self.name = name
        self.level = level
        self._hash = hash(("Sort", name, level))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Sort) and self.name == other.name and self.level == other.level
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sort({self.name!r})"

    def __str__(self):
        return self.name


class OpSymbol:
    __slots__ = ("name", "domain", "codomain", "_hash")

    def __init__(self, name: str, domain: tuple, codomain: Sort):
        self.name = name
        self.domain = tuple(domain)
        self.codomain = codomain
        self._hash = hash(("Op", name, self.domain, codomain))

    @property
    def arity(self) -> int:
        return len(self.domain)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, OpSymbol)
            and self.name == other.name
            and self.domain == other.domain
            and self.codomain == other.codomain
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OpSymbol({self.name!r})"

    def __str__(self):
        dom = " ".join(s.name for s in self.domain)
        return f"{self.name} : {dom} -> {self.codomain.name}"


class Var:
    __slots__ = ("name", "sort", "_hash")

    def __init__(self, name: str, sort: Sort):
        self.name = name
        self.sort = sort
        self._hash = hash(("Var", name, sort))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Var) and self.name == other.name and self.sort == other.sort
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var({self.name!r})"


class App:
    __slots__ = ("op", "args", "_hash")

    def __init__(self, op: OpSymbol, args: tuple = ()):
        self.op = op
        self.args = tuple(args)
        self._hash = hash(("App", op, self.args))

    @property
    def sort(self) -> Sort:
        return self.op.codomain

    def __eq__(self, other):
        return self is other or (
            isinstance(other, App)
            and self._hash == other._hash
            and self.op == other.op
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

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
    """Normal-form engine interface.

    Exact engines decide equality in the free algebra: two terms are
    equal iff their normal forms coincide.  An exact engine supplies
    three hooks: `value` maps a term to its semantic value, `render`
    maps a value back to its canonical term, and `value_size` measures
    a value.  Normalization, size, equality and substitution are
    derived from them here.  The generic engine only proves equalities
    (congruence closure up to a budget) and never separates terms.
    """

    exact = False
    _vcache: dict | None = None  # term -> value, for `substitute`

    def value(self, term: Term, env: Mapping | None = None):
        """The semantic value of `term`.  A variable reads its value
        from `env` (name -> value); without `env` it is its own atom."""
        raise UnsupportedDoctrine("doctrine has no guaranteed-canonical normal form")

    def render(self, value, sort: Sort) -> Term:
        """The canonical term of a value of `sort`."""
        raise NotImplementedError

    def value_size(self, value, sort: Sort) -> int:
        """The size of a value of `sort` (word length, node count, ...)."""
        raise NotImplementedError

    def normalize(self, term: Term) -> Term:
        return self.render(self.value(term), term.sort)

    def size(self, term: Term) -> int:
        """Size of the term's normal form (word length, node count, ...);
        the syntactic size for engines without values."""
        if not self.exact:
            return term_size(term)
        return self.value_size(self.value(term), term.sort)

    def equal(self, t1: Term, t2: Term, budget: int = 2) -> EqResult:
        return EqResult.EQUAL if self.normalize(t1) == self.normalize(t2) else EqResult.DISTINCT

    def substitute(self, terms, assignment: Mapping[str, Term]) -> tuple:
        """Normal forms of `terms` after simultaneous substitution,
        computed on values without building the substituted syntax.
        Values of the assigned terms are cached per engine."""
        cache = self._vcache
        if cache is None:
            cache = self._vcache = {}
        value, render = self.value, self.render
        env = {}
        for name, t in assignment.items():
            v = cache.get(t)
            if v is None:
                v = cache[t] = value(t)
            env[name] = v
        return tuple([render(value(t, env), t.sort) for t in terms])

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
        raise UnsupportedDoctrine("doctrine does not support exact enumeration")


@dataclass(frozen=True, eq=False)
class Doctrine:
    """A sorted equational presentation plus its normal-form engine."""

    name: str
    sorts: tuple[Sort, ...]
    ops: tuple[OpSymbol, ...]
    equations: tuple[Equation, ...]
    engine: Engine = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)

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
    if not doctrine.has_op(term.op.name) or doctrine.op(term.op.name) != term.op:
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
        rsort = repl.sort if isinstance(repl, Var) else repl.op.codomain
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


def enumerate_terms(context: Context, sort: Sort, doctrine: Doctrine, bound: int) -> list[Term]:
    """All distinct normal forms of `sort` with normal-form size <= bound,
    in a deterministic order.  Exact engines only."""
    if not doctrine.exact:
        raise UnsupportedDoctrine(
            f"doctrine {doctrine.name} has no exact engine; cannot enumerate terms"
        )
    return doctrine.engine.enumerate(context, sort, bound)


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

    result = upto(sort, nodes)
    # dedupe syntactically, keep deterministic order
    seen = set()
    unique = []
    for t in result:
        if t not in seen:
            seen.add(t)
            unique.append(t)
        if cap is not None and len(unique) >= cap:
            break
    return unique


def __getattr__(name):
    # builtin_doctrine logically belongs to this module's surface but
    # lives in `builtins` to keep the import graph acyclic
    if name == "builtin_doctrine":
        from .builtins import builtin_doctrine

        return builtin_doctrine
    raise AttributeError(name)
