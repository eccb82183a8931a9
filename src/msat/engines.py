"""Normal-form engines for the built-in doctrines.

An exact engine states the value of each operation once, as its generic
element: `generic[op]` is the value of op(x1, ..., xn) on fresh slot
variables (reduced word, polynomial, tree with labelled leaves, edge
path) where equality is literal.  Beside it are four hooks of
`signature.Engine`: `bind` substitutes values for the variable atoms of
a value (concatenate and reduce words, substitute into polynomials,
plug trees in for generator nodes, concatenate paths), `fold` walks a
value along its canonical term (one `var` call per variable, one
`node` call per operation; the callbacks are pure, so the operad engine
calls `node` for its unit once per fold and reuses it at every leaf),
`value_size` measures it and `enumerate_values` lists the values below
a size bound in a fixed order, so every hom-level API downstream is
deterministic.
`ExactEngine.value` is derived: a term op(t1, ..., tn) is the generic
element of op bound to the values of t1, ..., tn.  Values are
hashable, and the value of a lone variable is that `Var` itself: each
engine expands it where it computes and folds a result that is a lone
variable back to it.  The base class derives render (the fold that
builds the term), normalize, size, equal and substitution from them; a
finite algebra evaluates a value by folding it with its tables, without
building the term.  No engine keeps a cache.

Parsed theories with operations or equations get `BoundedGenericEngine`,
which proves equalities by equality saturation on an `EGraph` and
answers EQUAL or UNKNOWN, never DISTINCT.
"""

from __future__ import annotations

import itertools
import weakref

from .errors import SortMismatch, UnknownSymbol, UnsupportedDoctrine
from .search import UnionFind
from .signature import (
    Context,
    Engine,
    EqResult,
    OpSymbol,
    Sort,
    Term,
    Var,
    term_vars,
)


class ExactEngine(Engine):
    """An engine whose values are equal exactly when their terms are
    equal in the free algebra.

    An exact engine is a pure function of its constructor arguments, so
    it is hash-consed on them, as `signature.Interned` values are:
    doctrines built alike share one engine, and so the morphisms they
    make, which are interned on their engine, are the same objects.

    Its constructor fills `generic`, op -> (generic element, slot
    names), with one `define` per operation; `value` reads nothing else
    about the operations."""

    exact = True
    _table = weakref.WeakValueDictionary()

    def __new__(cls, *args):
        key = (cls, tuple([tuple(a.items()) if isinstance(a, dict) else a for a in args]))
        engine = cls._table.get(key)
        if engine is None:
            engine = cls._table[key] = super().__new__(cls)
            engine._args = args
        return engine

    def __reduce__(self):
        """Copies and pickles rebuild through the constructor, which
        returns the live engine."""
        return type(self), self._args

    def value(self, term: Term):
        """A variable is its own value; op(t1, ..., tn) is `generic[op]`
        with the values of t1, ..., tn bound to its slots (the term as
        the composite of op with the tuple of its arguments)."""
        if term.__class__ is Var:
            return term
        try:
            generic, slots = self.generic[term.op]
        except KeyError:
            raise UnknownSymbol(f"{type(self).__name__} has no op {term.op.name!r}") from None
        env = dict(zip(slots, map(self.value, term.args)))
        return self.bind(generic, env, term.op.codomain)

    def define(self, op: OpSymbol, element):
        """Record the generic element of `op`: `element(x1, ..., xn)` on
        slot variables of `op`'s domain sorts."""
        xs = [Var(f"x{i + 1}", s) for i, s in enumerate(op.domain)]
        self.generic[op] = (element(*xs), tuple([x.name for x in xs]))


# perfbench's tracer wraps `normalize` on each exact engine class's own
# __dict__, so every class below names the derived method once more.


class TrivialEngine(ExactEngine):
    """No operations or equations, any sorts: every term is a variable."""

    normalize = Engine.normalize
    generic: dict = {}

    def bind(self, value, env, sort: Sort):
        return env[value.name]

    def fold(self, value, sort: Sort, var, node):
        return var(value)

    def value_size(self, value, sort: Sort) -> int:
        return 0

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        return [v for v in context.vars if v.sort == sort]


def _letters(word):
    """The letters of a word value: a lone variable is one letter."""
    return ((word, 1),) if word.__class__ is Var else word


def _word_value(word):
    """The value of a tuple of letters: the variable of a lone letter."""
    if len(word) == 1 and word[0][1] == 1:
        return word[0][0]
    return word


class WordEngine(ExactEngine):
    """Flattened (monoid) or reduced (group) words in one sort: tuples of
    (Var, +1|-1) letters, monoids only using +1."""

    normalize = Engine.normalize

    def __init__(self, sort: Sort, mul: OpSymbol, unit: OpSymbol, inv: OpSymbol | None = None):
        self.sort = sort
        self.mul = mul
        self.unit = unit
        self.inv = inv
        self.generic = {}
        self.define(mul, lambda x, y: ((x, 1), (y, 1)))
        self.define(unit, lambda: ())
        if inv is not None:
            self.define(inv, lambda x: ((x, -1),))

    def bind(self, word, env, sort: Sort):
        if word.__class__ is Var:
            return env[word.name]
        if self.inv is None:
            out = ()
            for v, _ in word:
                w = env[v.name]
                out += ((w, 1),) if w.__class__ is Var else w
            return _word_value(out)
        out = []
        for v, e in word:
            w = env[v.name]
            if w.__class__ is Var:
                w = ((w, e),)
            elif e == -1:
                w = [(x, -f) for x, f in reversed(w)]
            for letter in w:
                if out and out[-1][0] is letter[0] and out[-1][1] == -letter[1]:
                    out.pop()
                else:
                    out.append(letter)
        if len(out) == 1 and out[0][1] == 1:
            return out[0][0]
        return tuple(out)

    def _reduce(self, word):
        if self.inv is None:
            return word
        out = []
        for letter in word:
            if out and out[-1][0] is letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def fold_letter(self, letter, var, node):
        v, e = letter
        return var(v) if e == 1 else node(self.inv, (var(v),))

    def fold(self, word, sort: Sort, var, node):
        if word.__class__ is Var:
            return var(word)
        if not word:
            return node(self.unit, ())
        out = self.fold_letter(word[-1], var, node)
        for letter in reversed(word[:-1]):
            out = node(self.mul, (self.fold_letter(letter, var, node), out))
        return out

    def value_size(self, word, sort: Sort) -> int:
        return len(_letters(word))

    def words(self, context: Context, bound: int):
        letters = []
        for v in context.vars:
            if v.sort != self.sort:
                continue
            letters.append((v, 1))
            if self.inv is not None:
                letters.append((v, -1))
        out = [()]
        frontier = [()]
        for _ in range(bound):
            nxt = []
            for w in frontier:
                for letter in letters:
                    if w and self.inv is not None and w[-1][0] == letter[0] and w[-1][1] == -letter[1]:
                        continue
                    nxt.append(w + (letter,))
            out.extend(nxt)
            frontier = nxt
        return out

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        if sort != self.sort:
            return []
        return [_word_value(w) for w in self.words(context, bound)]


class GroupActionEngine(ExactEngine):
    """Reduced group words acting on point variables: the value of an
    action-sort term is a (nonempty reduced word, point) pair or the
    lone point, the value of a group-sort term its word value."""

    normalize = Engine.normalize

    def __init__(self, word_engine: WordEngine, x_sort: Sort, act: OpSymbol):
        self.wordeng = word_engine
        self.x_sort = x_sort
        self.act = act
        self.generic = dict(word_engine.generic)
        self.define(act, lambda g, x: (((g, 1),), x))

    @staticmethod
    def _action_value(word, point):
        return (word, point) if word else point

    def bind(self, value, env, sort: Sort):
        wordeng = self.wordeng
        if sort is wordeng.sort:
            return wordeng.bind(value, env, sort)
        if value.__class__ is Var:
            return env[value.name]
        word, point = value
        inner = env[point.name]
        inner, point = ((), inner) if inner.__class__ is Var else inner
        word = _letters(wordeng.bind(word, env, wordeng.sort))
        return self._action_value(wordeng._reduce(word + inner), point)

    def fold(self, value, sort: Sort, var, node):
        wordeng = self.wordeng
        if sort is wordeng.sort:
            return wordeng.fold(value, sort, var, node)
        if value.__class__ is Var:
            return var(value)
        word, point = value
        out = var(point)
        for letter in reversed(word):
            out = node(self.act, (wordeng.fold_letter(letter, var, node), out))
        return out

    def value_size(self, value, sort: Sort) -> int:
        if sort is self.wordeng.sort:
            return self.wordeng.value_size(value, sort)
        return 0 if value.__class__ is Var else len(value[0])

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        if sort == self.wordeng.sort:
            return self.wordeng.enumerate_values(context, sort, bound)
        if sort != self.x_sort:
            return []
        points = [v for v in context.vars if v.sort == self.x_sort]
        words = self.wordeng.words(context, bound)
        return [self._action_value(w, p) for p in points for w in words]


class RingModuleEngine(ExactEngine):
    """Integer-coefficient polynomials (ring sort) and formal linear
    combinations of (monomial, point) pairs (module sort).

    A polynomial is computed as a dict monomial -> nonzero int,
    monomial = sorted tuple of (Var, exponent); a module element as a
    dict (monomial, Var) -> int.  Its value is the frozenset of the
    dict's items, or the variable of a lone variable.  Coefficients are
    arbitrary-precision by construction.
    """

    normalize = Engine.normalize

    def __init__(self, r_sort, m_sort, add, mul, neg, zero, one, madd, mneg, mzero, smul):
        self.r_sort, self.m_sort = r_sort, m_sort
        self.add, self.mul, self.neg, self.zero, self.one = add, mul, neg, zero, one
        self.madd, self.mneg, self.mzero, self.smul = madd, mneg, mzero, smul
        self.generic = {}
        self.define(add, lambda x, y: frozenset({(((x, 1),), 1), (((y, 1),), 1)}))
        self.define(mul, lambda x, y: frozenset({(((x, 1), (y, 1)), 1)}))
        self.define(neg, lambda x: frozenset({(((x, 1),), -1)}))
        self.define(zero, lambda: frozenset())
        self.define(one, lambda: frozenset({((), 1)}))
        self.define(madd, lambda x, y: frozenset({(((), x), 1), (((), y), 1)}))
        self.define(mneg, lambda x: frozenset({(((), x), -1)}))
        self.define(mzero, lambda: frozenset())
        self.define(smul, lambda r, x: frozenset({((((r, 1),), x), 1)}))

    def _frozen(self, poly: dict, sort: Sort):
        """The value of a polynomial or module dict."""
        if len(poly) == 1:
            ((key, c),) = poly.items()
            if c == 1:
                if sort is self.r_sort:
                    if len(key) == 1 and key[0][1] == 1:
                        return key[0][0]
                elif not key[0]:
                    return key[1]
        return frozenset(poly.items())

    def bind(self, value, env, sort: Sort):
        if value.__class__ is Var:
            return env[value.name]
        # accumulate in place: a dict copy per monomial makes binding
        # several times slower
        out: dict = {}
        if sort is self.r_sort:
            for mono, c in value:
                _poly_add_into(out, _mono_bind(mono, env), c)
        else:
            for (mono, pt), c in value:
                _smul_into(out, _mono_bind(mono, env), _module_items(env[pt.name]), c)
        return self._frozen(out, sort)

    def fold(self, value, sort: Sort, var, node):
        # a right-nested sum in monomial order of scaled monomials, each
        # acting on its point in the module sort (a lone point if it is 1)
        if value.__class__ is Var:
            return var(value)
        if sort is self.r_sort:
            zero, add = self.zero, self.add
            parts = [self._fold_scaled(c, m, var, node)
                     for m, c in sorted(value, key=lambda p: _mono_key(p[0]))]
        elif sort is self.m_sort:
            zero, add = self.mzero, self.madd
            parts = []
            for (m, pt), c in sorted(value, key=lambda p: (_mono_key(p[0][0]), p[0][1].name)):
                if c == 1 and not m:
                    parts.append(var(pt))
                else:
                    parts.append(node(self.smul, (self._fold_scaled(c, m, var, node), var(pt))))
        else:
            raise SortMismatch(f"term of unknown sort {sort.name}")
        if not parts:
            return node(zero, ())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = node(add, (p, out))
        return out

    def _fold_scaled(self, coeff: int, mono, var, node):
        """|coeff| copies of the monomial's product, summed, negated if
        coeff < 0."""
        letters = [v for v, e in mono for _ in range(e)]
        base = var(letters[-1]) if letters else node(self.one, ())
        for v in reversed(letters[:-1]):
            base = node(self.mul, (var(v), base))
        out = base
        for _ in range(abs(coeff) - 1):
            out = node(self.add, (base, out))
        return node(self.neg, (out,)) if coeff < 0 else out

    def value_size(self, value, sort: Sort) -> int:
        if sort == self.r_sort:
            return sum(abs(c) + _mono_deg(m) for m, c in _ring_items(value))
        return sum(abs(c) + _mono_deg(m) for (m, _), c in _module_items(value))

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        rvars = [v for v in context.vars if v.sort == self.r_sort]
        if sort == self.r_sort:
            monos = _monomials(rvars, bound)
            vals = _combinations(monos, bound, _mono_deg)
            return [self._frozen(v, sort) for v in vals]
        if sort == self.m_sort:
            mvars = [v for v in context.vars if v.sort == self.m_sort]
            keys = [
                (m, pt) for m in _monomials(rvars, bound) for pt in mvars
            ]
            keys.sort(key=lambda k: (_mono_key(k[0]), k[1].name))
            vals = _combinations(keys, bound, lambda k: _mono_deg(k[0]))
            return [self._frozen(v, sort) for v in vals]
        return []


def _ring_items(value):
    """The (monomial, coefficient) pairs of a ring-sort value."""
    return ((((value, 1),), 1),) if value.__class__ is Var else value


def _module_items(value):
    """The ((monomial, point), coefficient) pairs of a module-sort value."""
    return ((((), value), 1),) if value.__class__ is Var else value


def _mono_key(mono):
    return (_mono_deg(mono), tuple((v.name, e) for v, e in mono))


def _mono_deg(mono):
    return sum(e for _, e in mono)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    acc: dict = {}
    for v, e in (*m1, *m2):
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda p: p[0].name))


def _mono_bind(mono, env):
    """The (monomial, coefficient) pairs of a monomial with env's ring
    values for its variables; the product starts from its first factor."""
    if not mono:
        return (((), 1),)
    out = None
    for v, e in mono:
        p = _ring_items(env[v.name])
        for _ in range(e):
            out = p if out is None else _poly_mul(out, p).items()
    return out


def _poly_add_into(out, pairs, scale):
    """out += scale * p, in place, for the (key, coefficient) pairs of p."""
    for m, c in pairs:
        s = out.get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)


def _smul_into(out, poly, mod, scale):
    """out += scale * (poly . mod) on module values, in place; `poly`
    and `mod` are (key, coefficient) pairs."""
    for pm, pc in poly:
        pc *= scale
        for (mm, pt), mc in mod:
            key = (_mono_mul(pm, mm), pt)
            c = out.get(key, 0) + pc * mc
            if c:
                out[key] = c
            else:
                out.pop(key, None)


def _poly_mul(p1, p2):
    """The product of two polynomials given as (monomial, coefficient)
    pairs, as a dict."""
    out: dict = {}
    for m1, c1 in p1:
        for m2, c2 in p2:
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _monomials(rvars, max_deg):
    """All monomials over rvars of total degree <= max_deg, sorted."""
    out = []
    for degs in itertools.product(range(max_deg + 1), repeat=len(rvars)):
        if sum(degs) <= max_deg:
            out.append(tuple((v, e) for v, e in zip(rvars, degs) if e))
    out.sort(key=_mono_key)
    return out

def _combinations(keys, budget, deg_of):
    """All maps key -> nonzero int with sum(|c| + deg(key)) <= budget."""
    results = []

    def rec(i, left, acc):
        if i == len(keys):
            results.append(dict(acc))
            return
        rec(i + 1, left, acc)
        d = deg_of(keys[i])
        c = 1
        while c + d <= left:
            for sign in (1, -1):
                acc[keys[i]] = sign * c
                rec(i + 1, left - c - d, acc)
            del acc[keys[i]]
            c += 1

    rec(0, budget, {})
    return results


class OperadEngine(ExactEngine):
    """The free operad on generator variables: planar trees whose nodes
    are generators and whose leaves carry input labels.

    A value of sort P_n is a tree with n leaves.  A leaf is the int
    label (1..n) of the input it takes; a node is (gen, children), one
    child per input of the generator `Var` gen.  Non-symmetric values
    label their leaves 1..n in planar order; symmetric ones in any
    order, the permutation symbols acting on the labels.  A lone
    generator with its leaves in order is the generator's `Var`.
    Binding substitutes trees for generator nodes.
    """

    normalize = Engine.normalize

    def __init__(self, symmetric: bool, level_cap: int, unit: OpSymbol, gammas: dict, perms: dict):
        # gammas: (k, j_tuple) -> OpSymbol; perms: (k, sigma_tuple) -> OpSymbol
        self.symmetric = symmetric
        self.level_cap = level_cap
        self.unit = unit
        self.gammas = gammas
        self.perms = perms
        self.generic = {}
        self.define(unit, lambda: 1)
        for gamma in gammas.values():
            self.define(gamma, _gamma_element)
        for (_, sigma), perm in perms.items():
            self.define(perm, lambda p, sigma=sigma: (p, sigma))

    def bind(self, value, env, sort: Sort):
        if value.__class__ is Var:
            return env[value.name]
        if value.__class__ is int:
            return value
        return _operad_value(_substitute(value, env))

    def fold(self, value, sort: Sort, var, node):
        if value.__class__ is Var:
            return var(value)
        unit = node(self.unit, ())
        if value.__class__ is int:
            return unit
        labels = []
        out, n = self._fold_tree(value, labels, var, node, unit)
        if labels != list(range(1, n + 1)):
            return node(self.perms[(n, tuple(labels))], (out,))
        return out

    def _fold_tree(self, tree, labels, var, node, unit):
        """The fold of the node `tree` and its leaf count, from one
        planar walk that appends the leaf labels to `labels`; `unit` is
        the fold of a leaf."""
        gen, children = tree
        for c in children:
            if c.__class__ is not int:
                break
        else:
            labels.extend(children)
            return var(gen), len(children)
        args, levels = [None], []
        for c in children:
            if c.__class__ is int:
                labels.append(c)
                args.append(unit)
                levels.append(1)
            else:
                f, n = self._fold_tree(c, labels, var, node, unit)
                args.append(f)
                levels.append(n)
        levels = tuple(levels)
        gamma = self.gammas.get((len(children), levels))
        if gamma is None:
            raise UnsupportedDoctrine(
                f"composition at levels {levels} exceeds level cap {self.level_cap}"
            )
        args[0] = var(gen)
        return node(gamma, tuple(args)), sum(levels)

    def value_size(self, value, sort: Sort) -> int:
        return 1 if value.__class__ is Var else _tree_nodes(value)

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        n = sort.level
        gens = [v for v in context.vars if v.sort.level is not None]
        shapes = _trees_at(n, 1, bound, gens)
        shapes.sort(key=lambda t: (_tree_nodes(t), _tree_key(t)))
        if self.symmetric:
            orders = list(itertools.permutations(range(1, n + 1)))
            shapes = [_plug(t, order) for t in shapes for order in orders]
        return [_operad_value(t) for t in shapes]


def _gamma_element(p, *qs):
    """p's node over one node per q, q's leaves labelled after those of
    the qs before it."""
    kids, offset = [], 0
    for q in qs:
        j = q.sort.level
        kids.append((q, tuple(range(offset + 1, offset + j + 1))))
        offset += j
    return (p, tuple(kids))


def _substitute(tree, env):
    """The node `tree` with env's value plugged in for each generator
    node."""
    gen, children = tree
    return _plug(env[gen.name],
                 [c if c.__class__ is int else _substitute(c, env) for c in children])


def _plug(tree, kids):
    """`tree` with its leaf labelled i replaced by kids[i-1]; a
    generator `Var` is its node over kids."""
    if tree.__class__ is int:
        return kids[tree - 1]
    if tree.__class__ is Var:
        return (tree, tuple(kids))
    gen, children = tree
    return (gen, tuple([kids[c - 1] if c.__class__ is int else _plug(c, kids)
                        for c in children]))


def _operad_value(tree):
    """The value of a tree: the generator of a lone generator with its
    leaves in order."""
    if tree.__class__ is tuple and tree[1] == tuple(range(1, len(tree[1]) + 1)):
        return tree[0]
    return tree


def _tree_nodes(tree) -> int:
    if tree.__class__ is int:
        return 0
    return 1 + sum([_tree_nodes(c) for c in tree[1]])


def _tree_key(tree):
    """The shape of a tree for ordering: a leaf comes before any node,
    nodes compare by generator name, then by children."""
    if tree.__class__ is int:
        return ()
    return (tree[0].name, tuple([_tree_key(c) for c in tree[1]]))


def _trees_at(level, first, max_nodes, gens):
    """All planar trees with `level` leaves, labelled first, first + 1,
    ... in planar order, and at most max_nodes generator nodes over the
    given generator variables."""
    out = [first] if level == 1 else []
    if max_nodes < 1:
        return out
    for g in gens:
        for comp in bounded_compositions(level, g.sort.level):
            if sum(comp) == level:
                for children in _child_lists(comp, first, max_nodes - 1, gens):
                    out.append((g, children))
    return out


def _child_lists(levels, first, budget, gens):
    if not levels:
        yield ()
        return
    for head in _trees_at(levels[0], first, budget, gens):
        used = _tree_nodes(head)
        for tail in _child_lists(levels[1:], first + levels[0], budget - used, gens):
            yield (head, *tail)


def bounded_compositions(total, parts):
    """The tuples of `parts` non-negative ints with sum <= total, in
    lexicographic order."""
    if parts == 0:
        return [()]
    return [
        (first, *rest)
        for first in range(total + 1)
        for rest in bounded_compositions(total - first, parts - 1)
    ]


class PathEngine(ExactEngine):
    """Composable edge paths: the free category on context edges.  A
    value is ((x, y), edges), or the edge of a one-edge path."""

    normalize = Engine.normalize

    def __init__(self, pair_of_sort: dict, comp_ops: dict, id_ops: dict):
        # pair_of_sort: Sort -> (x, y);  comp_ops: (x, y, z) -> OpSymbol;
        # id_ops: x -> OpSymbol
        self.pair_of_sort = pair_of_sort
        self.comp_ops = comp_ops
        self.id_ops = id_ops
        self.generic = {}
        for x, op in id_ops.items():
            self.define(op, lambda x=x: ((x, x), ()))
        for (x, _, z), op in comp_ops.items():
            self.define(op, lambda f, g, ends=(x, z): (ends, (f, g)))

    @staticmethod
    def _path_value(ends, edges):
        return edges[0] if len(edges) == 1 else (ends, edges)

    def bind(self, value, env, sort: Sort):
        # each edge is replaced by a path between the same objects
        if value.__class__ is Var:
            return env[value.name]
        ends, edges = value
        out = ()
        for e in edges:
            w = env[e.name]
            out += (w,) if w.__class__ is Var else w[1]
        return self._path_value(ends, out)

    def fold(self, value, sort: Sort, var, node):
        if value.__class__ is Var:
            return var(value)
        (x, y), edges = value
        if not edges:
            return node(self.id_ops[x], ())
        out = var(edges[-1])
        # every partial composite ends where the last edge does
        ty = self.pair_of_sort[edges[-1].sort][1]
        for e in reversed(edges[:-1]):
            ex, ey = self.pair_of_sort[e.sort]
            out = node(self.comp_ops[(ex, ey, ty)], (var(e), out))
        return out

    def value_size(self, value, sort: Sort) -> int:
        return 1 if value.__class__ is Var else len(value[1])

    def enumerate_values(self, context: Context, sort: Sort, bound: int) -> list:
        x, y = self.pair_of_sort[sort]
        edges = [v for v in context.vars if v.sort in self.pair_of_sort]
        paths = []

        def extend(at, acc):
            if len(acc) > bound:
                return
            if at == y:
                paths.append(tuple(acc))
            if len(acc) == bound:
                return
            for e in edges:
                ex, ey = self.pair_of_sort[e.sort]
                if ex == at:
                    acc.append(e)
                    extend(ey, acc)
                    acc.pop()

        extend(x, [])
        paths.sort(key=lambda p: (len(p), tuple(e.name for e in p)))
        return [self._path_value((x, y), p) for p in paths]


_MAX_NODES = 800  # e-node budget of BoundedGenericEngine.equal


class _Full(Exception):
    """The e-graph reached its node budget."""


class EGraph:
    """Equivalence classes of terms closed under congruence, in the style
    of egg (Willsey et al., *egg: Fast and Extensible Equality
    Saturation*, POPL 2021).

    An e-node is `(op, child classes)`: `op` is an operation symbol, or
    a `Var` for a leaf.  E-nodes are hash-consed in `memo`, and a class
    is a root of one `search.UnionFind` over integer class ids.  Unions
    are deferred: `rebuild` repairs the e-nodes that use a merged class
    until congruence holds again (Downey, Sethi & Tarjan 1980).  Class
    ids are allocated in insertion order and only lists and dicts are
    iterated, so every run builds the same graph.
    """

    def __init__(self):
        self.uf = UnionFind()
        self.memo: dict = {}  # e-node -> class
        self.sorts: list = []  # class id -> sort; one class per e-node ever added
        self.nodes: dict = {}  # root -> its e-nodes
        self.parents: dict = {}  # root -> [(e-node, class)] of the e-nodes using it
        self.pending: list = []  # roots merged since the last rebuild

    def add(self, op, kids: tuple, sort: Sort) -> int:
        key = (op, tuple([self.uf.find(k) for k in kids]))
        c = self.memo.get(key)
        if c is not None:
            return self.uf.find(c)
        c = self.memo[key] = len(self.sorts)
        self.sorts.append(sort)
        self.nodes[c] = [key]
        self.parents[c] = []
        for k in key[1]:
            self.parents[k].append((key, c))
        return c

    def add_term(self, term: Term, env=None) -> int:
        """The class of `term`.  A variable is a leaf, or with `env`
        (name -> class) the class it is bound to."""
        if isinstance(term, Var):
            return self.add(term, (), term.sort) if env is None else env[term.name]
        kids = tuple([self.add_term(a, env) for a in term.args])
        return self.add(term.op, kids, term.op.codomain)

    def union(self, a: int, b: int) -> bool:
        """Merge two classes; False if they were one class."""
        find = self.uf.find
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        self.uf.union(ra, rb)
        root = find(ra)
        other = rb if root == ra else ra
        self.nodes[root] += self.nodes.pop(other)
        self.parents[root] += self.parents.pop(other)
        self.pending.append(root)
        return True

    def rebuild(self):
        """Restore congruence: re-key the users of every merged class and
        merge the classes of users that now coincide."""
        find, memo = self.uf.find, self.memo
        while self.pending:
            todo = list(dict.fromkeys([find(c) for c in self.pending]))
            self.pending = []
            for c in todo:
                c = find(c)
                uses, self.parents[c] = self.parents[c], []
                for key, _ in uses:
                    memo.pop(key, None)
                fresh: dict = {}
                for (op, kids), user in uses:
                    key = (op, tuple([find(k) for k in kids]))
                    if key in fresh:
                        self.union(fresh[key], user)
                    fresh[key] = memo[key] = find(user)
                self.parents[find(c)] += fresh.items()

    def index(self):
        """Canonicalize the e-nodes of every class; return the classes'
        e-nodes by operation, `op -> [(class, kids)]`, and the classes by
        sort.  Call after `rebuild`."""
        find = self.uf.find
        by_op: dict = {}
        by_sort: dict = {}
        for c, nodes in self.nodes.items():
            nodes = self.nodes[c] = list(
                dict.fromkeys([(op, tuple([find(k) for k in kids])) for op, kids in nodes])
            )
            by_sort.setdefault(self.sorts[c], []).append(c)
            for op, kids in nodes:
                by_op.setdefault(op, []).append((c, kids))
        return by_op, by_sort

    def match(self, pattern: Term, c: int, env: dict) -> list[dict]:
        """Every extension of `env` (variable name -> class) under which
        `pattern` matches class `c`."""
        if isinstance(pattern, Var):
            bound = env.get(pattern.name)
            if bound is None:
                return [{**env, pattern.name: c}]
            return [env] if bound == c else []
        out = []
        for op, kids in self.nodes[c]:
            if op is pattern.op:
                out += self.match_args(pattern.args, kids, env)
        return out

    def match_args(self, patterns, kids, env: dict) -> list[dict]:
        envs = [env]
        for p, k in zip(patterns, kids):
            envs = [e for env in envs for e in self.match(p, k, env)]
        return envs

    def step(self, rules) -> bool:
        """Apply every rule at every match in the graph as it stands, then
        rebuild; False when that changed nothing (saturation).  A rule is
        `(source, target, free)`; the `free` variables range over every
        class of their sort, so a rule whose free sort has no class never
        fires.  Raises `_Full` once the graph holds `_MAX_NODES` e-nodes."""
        by_op, by_sort = self.index()
        matches = []
        for source, target, free in rules:
            if isinstance(source, Var):
                found = [(c, {source.name: c}) for c in by_sort.get(source.sort, ())]
            else:
                found = [
                    (c, env)
                    for c, kids in by_op.get(source.op, ())
                    for env in self.match_args(source.args, kids, {})
                ]
            matches += [(c, env, target, free) for c, env in found]
        size, merged = len(self.sorts), False
        for c, env, target, free in matches:
            for values in itertools.product(*[by_sort.get(v.sort, ()) for v in free]):
                if len(self.sorts) >= _MAX_NODES:
                    raise _Full
                full = env | {v.name: k for v, k in zip(free, values)}
                merged |= self.union(c, self.add_term(target, full))
        self.rebuild()
        return merged or len(self.sorts) > size


class BoundedGenericEngine(Engine):
    """Equality saturation for theories without an exact engine.

    `equal` puts both terms in an `EGraph` and applies every equation in
    both directions, by e-matching its source side, for `budget` rounds.
    It answers EQUAL as soon as the terms share a class, and UNKNOWN at
    saturation, after the last round, or when the graph reaches
    `_MAX_NODES` e-nodes.  Sound and explicitly incomplete: it never
    separates terms.  An equation is used only where every variable of
    its context, named in its sides or not, can be bound to a class: a
    model may leave a sort empty, and then the equation says nothing.
    Its values are the terms themselves (`signature.Engine`), so
    morphisms compose by substitution; it has no normal forms.
    """

    _doctrine = None  # set by `attach`

    def attach(self, doctrine):
        self._doctrine = doctrine
        return self

    def normalize(self, term: Term) -> Term:
        raise UnsupportedDoctrine("doctrine has no guaranteed-canonical normal form")

    def equal(self, t1: Term, t2: Term, budget: int = 2) -> EqResult:
        doc = self._doctrine
        if doc is None:
            raise UnsupportedDoctrine("generic engine is not bound to a doctrine")
        rules = []
        for eq in doc.equations:
            for source, target in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                bound = term_vars(source)
                rules.append((source, target,
                              [v for v in eq.context.vars if v.name not in bound]))
        g = EGraph()
        c1, c2 = g.add_term(t1), g.add_term(t2)
        find = g.uf.find
        try:
            for _ in range(budget):
                if find(c1) == find(c2) or not g.step(rules):
                    break
        except _Full:
            g.rebuild()
        return EqResult.EQUAL if find(c1) == find(c2) else EqResult.UNKNOWN
