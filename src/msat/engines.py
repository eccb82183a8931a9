"""Normal-form engines for the built-in doctrines.

Each exact engine converts terms to a semantic value (reduced word,
polynomial, labeled tree, edge path), where equality is literal, and
renders the value back as a canonical term.  Enumeration produces all
normal forms below a size bound in a fixed order, so every hom-level
API downstream is deterministic.
"""

from __future__ import annotations

import itertools

from .errors import SortMismatch, UnknownSymbol, UnsupportedDoctrine
from .search import UnionFind
from .signature import (
    App,
    Context,
    Engine,
    EqResult,
    OpSymbol,
    Sort,
    Term,
    Var,
)

LEAF = ("leaf",)


def _exact_equal(engine, t1, t2):
    return EqResult.EQUAL if engine.normalize(t1) == engine.normalize(t2) else EqResult.DISTINCT


class TrivialEngine(Engine):
    """No operations: every term is a variable and already normal."""

    exact = True

    def normalize(self, term: Term) -> Term:
        if isinstance(term, Var):
            return term
        raise UnknownSymbol(f"trivial doctrine has no op {term.op.name!r}")

    def size(self, term: Term) -> int:
        return 0

    def equal(self, t1, t2, budget=2):
        return _exact_equal(self, t1, t2)

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
        return [v for v in context.vars if v.sort == sort]


class WordEngine(Engine):
    """Flattened (monoid) or reduced (group) words in one sort."""

    exact = True

    def __init__(self, sort: Sort, mul: OpSymbol, unit: OpSymbol, inv: OpSymbol | None = None):
        self.sort = sort
        self.mul = mul
        self.unit = unit
        self.inv = inv
        self._vcache: dict = {}
        self._tcache: dict = {}

    # words are tuples of (Var, +1|-1) letters; monoids only use +1
    def to_word(self, term: Term):
        if isinstance(term, Var):
            return ((term, 1),)
        name = term.op.name
        if name == self.unit.name:
            return ()
        if name == self.mul.name:
            return self._reduce(self.to_word(term.args[0]) + self.to_word(term.args[1]))
        if self.inv is not None and name == self.inv.name:
            return tuple((v, -e) for v, e in reversed(self.to_word(term.args[0])))
        raise UnknownSymbol(f"unknown op {name!r} in word engine")

    def _reduce(self, word):
        if self.inv is None:
            return word
        out = []
        for letter in word:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def letter_term(self, letter) -> Term:
        v, e = letter
        return v if e == 1 else App(self.inv, (v,))

    def from_word(self, word) -> Term:
        # canonical terms are interned: equal words give identical objects
        cached = self._tcache.get(word)
        if cached is not None:
            return cached
        if not word:
            term = App(self.unit)
        else:
            term = self.letter_term(word[-1])
            for letter in reversed(word[:-1]):
                term = App(self.mul, (self.letter_term(letter), term))
        self._tcache[word] = term
        return term

    def normalize(self, term: Term) -> Term:
        return self.from_word(self.to_word(term))

    def size(self, term: Term) -> int:
        return len(self.to_word(term))

    def equal(self, t1, t2, budget=2):
        return _exact_equal(self, t1, t2)

    # value-level substitution: composition-heavy callers avoid building
    # intermediate syntax trees
    def word_of(self, term: Term):
        w = self._vcache.get(term)
        if w is None:
            w = self.to_word(term)
            self._vcache[term] = w
        return w

    def subst_word(self, term: Term, env: dict):
        if isinstance(term, Var):
            return env[term.name]
        name = term.op.name
        if name == self.unit.name:
            return ()
        if name == self.mul.name:
            return self._reduce(
                self.subst_word(term.args[0], env) + self.subst_word(term.args[1], env)
            )
        if self.inv is not None and name == self.inv.name:
            return tuple((v, -e) for v, e in reversed(self.subst_word(term.args[0], env)))
        raise UnknownSymbol(f"unknown op {name!r} in word engine")

    def compose_tuple(self, gterms, fterms):
        env = {f"v{i+1}": self.word_of(t) for i, t in enumerate(fterms)}
        return tuple(self.from_word(self.subst_word(t, env)) for t in gterms)

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

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
        if sort != self.sort:
            return []
        return [self.from_word(w) for w in self.words(context, bound)]


class GroupActionEngine(Engine):
    """Reduced group words acting on point variables: the value of an
    action-sort term is a (reduced word, point) pair."""

    exact = True

    def __init__(self, word_engine: WordEngine, x_sort: Sort, act: OpSymbol):
        self.wordeng = word_engine
        self.x_sort = x_sort
        self.act = act
        self._vcache: dict = {}

    def to_pair(self, term: Term):
        if isinstance(term, Var):
            return ((), term)
        if term.op.name == self.act.name:
            word = self.wordeng.to_word(term.args[0])
            inner_word, point = self.to_pair(term.args[1])
            return (self.wordeng._reduce(word + inner_word), point)
        raise UnknownSymbol(f"unknown action-sort op {term.op.name!r}")

    def from_pair(self, pair) -> Term:
        word, point = pair
        term = point
        for letter in reversed(word):
            term = App(self.act, (self.wordeng.letter_term(letter), term))
        return term

    def normalize(self, term: Term) -> Term:
        sort = term.sort if isinstance(term, Var) else term.op.codomain
        if sort == self.x_sort:
            return self.from_pair(self.to_pair(term))
        return self.wordeng.normalize(term)

    def size(self, term: Term) -> int:
        sort = term.sort if isinstance(term, Var) else term.op.codomain
        if sort == self.x_sort:
            return len(self.to_pair(term)[0])
        return self.wordeng.size(term)

    def equal(self, t1, t2, budget=2):
        return _exact_equal(self, t1, t2)

    def _value_of(self, term: Term):
        v = self._vcache.get(term)
        if v is None:
            sort = term.sort if isinstance(term, Var) else term.op.codomain
            v = self.to_pair(term) if sort == self.x_sort else self.wordeng.to_word(term)
            self._vcache[term] = v
        return v

    def _subst_value(self, term: Term, env: dict):
        if isinstance(term, Var):
            return env[term.name]
        if term.op.name == self.act.name:
            word = self.wordeng.subst_word(term.args[0], env)
            inner, point = self._subst_value(term.args[1], env)
            return (self.wordeng._reduce(word + inner), point)
        return self.wordeng.subst_word(term, env)

    def compose_tuple(self, gterms, fterms):
        env = {f"v{i+1}": self._value_of(t) for i, t in enumerate(fterms)}
        out = []
        for t in gterms:
            sort = t.sort if isinstance(t, Var) else t.op.codomain
            if sort == self.x_sort:
                out.append(self.from_pair(self._subst_value(t, env)))
            else:
                out.append(self.wordeng.from_word(self.wordeng.subst_word(t, env)))
        return tuple(out)

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
        if sort == self.wordeng.sort:
            return self.wordeng.enumerate(context, sort, bound)
        if sort != self.x_sort:
            return []
        points = [v for v in context.vars if v.sort == self.x_sort]
        words = self.wordeng.words(context, bound)
        return [self.from_pair((w, p)) for p in points for w in words]


class RingModuleEngine(Engine):
    """Integer-coefficient polynomials (ring sort) and formal linear
    combinations of (monomial, point) pairs (module sort).

    Values: poly = dict monomial -> nonzero int, monomial = sorted tuple
    of (Var, exponent); module value = dict (monomial, Var) -> int.
    Coefficients are arbitrary-precision by construction.
    """

    exact = True

    def __init__(self, r_sort, m_sort, add, mul, neg, zero, one, madd, mneg, mzero, smul):
        self.r_sort, self.m_sort = r_sort, m_sort
        self.add, self.mul, self.neg, self.zero, self.one = add, mul, neg, zero, one
        self.madd, self.mneg, self.mzero, self.smul = madd, mneg, mzero, smul

    # -- ring values ---------------------------------------------------
    def to_poly(self, term: Term) -> dict:
        if isinstance(term, Var):
            return {((term, 1),): 1}
        name = term.op.name
        if name == self.zero.name:
            return {}
        if name == self.one.name:
            return {(): 1}
        if name == self.add.name:
            return _poly_add(self.to_poly(term.args[0]), self.to_poly(term.args[1]))
        if name == self.neg.name:
            return {m: -c for m, c in self.to_poly(term.args[0]).items()}
        if name == self.mul.name:
            return _poly_mul(self.to_poly(term.args[0]), self.to_poly(term.args[1]))
        raise UnknownSymbol(f"unknown ring op {name!r}")

    def _mono_base_term(self, mono) -> Term:
        letters = []
        for v, e in mono:
            letters.extend([v] * e)
        if not letters:
            return App(self.one)
        term = letters[-1]
        for v in reversed(letters[:-1]):
            term = App(self.mul, (v, term))
        return term

    def _scaled_term(self, coeff: int, base: Term) -> Term:
        mag = abs(coeff)
        term = base
        for _ in range(mag - 1):
            term = App(self.add, (base, term))
        if coeff < 0:
            term = App(self.neg, (term,))
        return term

    def from_poly(self, poly: dict) -> Term:
        if not poly:
            return App(self.zero)
        monos = sorted(poly, key=_mono_key)
        parts = [self._scaled_term(poly[m], self._mono_base_term(m)) for m in monos]
        term = parts[-1]
        for p in reversed(parts[:-1]):
            term = App(self.add, (p, term))
        return term

    # -- module values -------------------------------------------------
    def to_mod(self, term: Term) -> dict:
        if isinstance(term, Var):
            return {((), term): 1}
        name = term.op.name
        if name == self.mzero.name:
            return {}
        if name == self.madd.name:
            return _poly_add(self.to_mod(term.args[0]), self.to_mod(term.args[1]))
        if name == self.mneg.name:
            return {k: -c for k, c in self.to_mod(term.args[0]).items()}
        if name == self.smul.name:
            poly = self.to_poly(term.args[0])
            mod = self.to_mod(term.args[1])
            out: dict = {}
            for pm, pc in poly.items():
                for (mm, pt), mc in mod.items():
                    key = (_mono_mul(pm, mm), pt)
                    c = out.get(key, 0) + pc * mc
                    if c:
                        out[key] = c
                    else:
                        out.pop(key, None)
            return out
        raise UnknownSymbol(f"unknown module op {name!r}")

    def from_mod(self, val: dict) -> Term:
        if not val:
            return App(self.mzero)
        keys = sorted(val, key=lambda k: (_mono_key(k[0]), k[1].name))
        parts = []
        for mono, pt in keys:
            c = val[(mono, pt)]
            if c == 1 and not mono:
                parts.append(pt)
            else:
                parts.append(App(self.smul, (self.from_poly({mono: c}), pt)))
        term = parts[-1]
        for p in reversed(parts[:-1]):
            term = App(self.madd, (p, term))
        return term

    def normalize(self, term: Term) -> Term:
        sort = term.sort if isinstance(term, Var) else term.op.codomain
        if sort == self.r_sort:
            return self.from_poly(self.to_poly(term))
        if sort == self.m_sort:
            return self.from_mod(self.to_mod(term))
        raise SortMismatch(f"term of unknown sort {sort.name}")

    def size(self, term: Term) -> int:
        sort = term.sort if isinstance(term, Var) else term.op.codomain
        if sort == self.r_sort:
            return sum(abs(c) + _mono_deg(m) for m, c in self.to_poly(term).items())
        return sum(abs(c) + _mono_deg(m) for (m, _), c in self.to_mod(term).items())

    def equal(self, t1, t2, budget=2):
        return _exact_equal(self, t1, t2)

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
        rvars = [v for v in context.vars if v.sort == self.r_sort]
        if sort == self.r_sort:
            monos = _monomials(rvars, bound)
            vals = _combinations(monos, bound, _mono_deg)
            return [self.from_poly(v) for v in vals]
        if sort == self.m_sort:
            mvars = [v for v in context.vars if v.sort == self.m_sort]
            keys = [
                (m, pt) for m in _monomials(rvars, bound) for pt in mvars
            ]
            keys.sort(key=lambda k: (_mono_key(k[0]), k[1].name))
            vals = _combinations(keys, bound, lambda k: _mono_deg(k[0]))
            return [self.from_mod(v) for v in vals]
        return []


def _mono_key(mono):
    return (_mono_deg(mono), tuple((v.name, e) for v, e in mono))


def _mono_deg(mono):
    return sum(e for _, e in mono)


def _mono_mul(m1, m2):
    acc: dict = {}
    for v, e in (*m1, *m2):
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda p: p[0].name))


def _poly_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _poly_mul(p1, p2):
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
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


class OperadEngine(Engine):
    """Planar trees with generator-labeled nodes; symmetric variant adds a
    bijective leaf labeling acted on by the permutation symbols.

    A value is (tree, labels): tree = LEAF or ("node", Var, children);
    labels is the tuple of input indices carried by the leaves in planar
    order.  Non-symmetric doctrines force labels to the identity.
    """

    exact = True

    def __init__(self, symmetric: bool, level_cap: int, sorts_by_level: dict,
                 unit: OpSymbol, gammas: dict, perms: dict):
        # gammas: (k, j_tuple) -> OpSymbol; perms: (k, sigma_tuple) -> OpSymbol
        self.symmetric = symmetric
        self.level_cap = level_cap
        self.sorts_by_level = sorts_by_level
        self.unit = unit
        self.gammas = gammas
        self.perms = perms
        self._perm_by_name = {op.name: key for key, op in perms.items()}
        self._gamma_by_name = {op.name: key for key, op in gammas.items()}

    def level_of_value(self, val):
        return len(val[1])

    def to_value(self, term: Term):
        if isinstance(term, Var):
            k = term.sort.level
            return (("node", term, (LEAF,) * k), tuple(range(1, k + 1)))
        name = term.op.name
        if name == self.unit.name:
            return (LEAF, (1,))
        if name in self._gamma_by_name:
            p = self.to_value(term.args[0])
            qs = [self.to_value(a) for a in term.args[1:]]
            return self.graft(p, qs)
        if name in self._perm_by_name:
            _, sigma = self._perm_by_name[name]
            tree, labels = self.to_value(term.args[0])
            return (tree, tuple(sigma[l - 1] for l in labels))
        raise UnknownSymbol(f"unknown operad op {name!r}")

    def graft(self, p, qs):
        """Attach qs[i-1] onto the leaf of p labeled i."""
        ptree, plabels = p
        levels = [len(q[1]) for q in qs]
        offsets = [0]
        for lv in levels:
            offsets.append(offsets[-1] + lv)
        cursor = {"i": 0}
        new_labels: list[int] = []

        def splice(tree):
            if tree == LEAF:
                idx = cursor["i"]
                cursor["i"] += 1
                label = plabels[idx]
                qtree, qlabels = qs[label - 1]
                new_labels.extend(offsets[label - 1] + m for m in qlabels)
                return qtree
            _, gen, children = tree
            return ("node", gen, tuple(splice(c) for c in children))

        return (splice(ptree), tuple(new_labels))

    def _tree_term(self, tree) -> Term:
        if tree == LEAF:
            return App(self.unit)
        _, gen, children = tree
        if all(c == LEAF for c in children):
            return gen
        k = len(children)
        levels = tuple(_tree_leaves(c) for c in children)
        gamma = self.gammas.get((k, levels))
        if gamma is None:
            raise UnsupportedDoctrine(
                f"composition at levels {levels} exceeds level cap {self.level_cap}"
            )
        return App(gamma, (gen, *(self._tree_term(c) for c in children)))

    def from_value(self, val) -> Term:
        tree, labels = val
        term = self._tree_term(tree)
        k = len(labels)
        if self.symmetric and labels != tuple(range(1, k + 1)):
            return App(self.perms[(k, labels)], (term,))
        return term

    def normalize(self, term: Term) -> Term:
        return self.from_value(self.to_value(term))

    def size(self, term: Term) -> int:
        return _tree_nodes(self.to_value(term)[0])

    def equal(self, t1, t2, budget=2):
        return _exact_equal(self, t1, t2)

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
        level = sort.level
        gens = [v for v in context.vars if v.sort.level is not None]
        trees = _trees_at(level, bound, gens)
        vals = []
        for tree in trees:
            n = _tree_leaves(tree)
            if self.symmetric:
                for labels in itertools.permutations(range(1, n + 1)):
                    vals.append((tree, labels))
            else:
                vals.append((tree, tuple(range(1, n + 1))))
        vals.sort(key=lambda v: (_tree_nodes(v[0]), _tree_key(v[0]), v[1]))
        return [self.from_value(v) for v in vals]


def _tree_leaves(tree) -> int:
    if tree == LEAF:
        return 1
    return sum(_tree_leaves(c) for c in tree[2])


def _tree_nodes(tree) -> int:
    if tree == LEAF:
        return 0
    return 1 + sum(_tree_nodes(c) for c in tree[2])


def _tree_key(tree):
    if tree == LEAF:
        return ("leaf",)
    return ("node", tree[1].name, tuple(_tree_key(c) for c in tree[2]))


def _trees_at(level, max_nodes, gens):
    """All planar trees with the given leaf count and at most max_nodes
    generator nodes, over the given generator variables."""
    out = []
    if level == 1:
        out.append(LEAF)
    if max_nodes < 1:
        return out
    for g in gens:
        k = g.sort.level
        for comp in _compositions(level, k):
            for children in _child_lists(comp, max_nodes - 1, gens):
                out.append(("node", g, children))
    return out


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first, *rest))
    return out


def _child_lists(levels, budget, gens):
    if not levels:
        yield ()
        return
    for head in _trees_at(levels[0], budget, gens):
        used = _tree_nodes(head)
        for tail in _child_lists(levels[1:], budget - used, gens):
            yield (head, *tail)


class PathEngine(Engine):
    """Composable edge paths: the free category on context edges."""

    exact = True

    def __init__(self, pair_of_sort: dict, comp_ops: dict, id_ops: dict):
        # pair_of_sort: Sort -> (x, y);  comp_ops: (x, y, z) -> OpSymbol;
        # id_ops: x -> OpSymbol
        self.pair_of_sort = pair_of_sort
        self.comp_ops = comp_ops
        self.id_ops = id_ops
        self._id_by_name = {op.name: x for x, op in id_ops.items()}
        self._comp_by_name = {op.name: key for key, op in comp_ops.items()}

    def to_path(self, term: Term):
        if isinstance(term, Var):
            return (self.pair_of_sort[term.sort], (term,))
        name = term.op.name
        if name in self._id_by_name:
            x = self._id_by_name[name]
            return ((x, x), ())
        if name in self._comp_by_name:
            (x1, _), e1 = self.to_path(term.args[0])
            (_, y2), e2 = self.to_path(term.args[1])
            return ((x1, y2), e1 + e2)
        raise UnknownSymbol(f"unknown path op {name!r}")

    def from_path(self, path) -> Term:
        (x, y), edges = path
        if not edges:
            return App(self.id_ops[x])
        term = edges[-1]
        for e in reversed(edges[:-1]):
            ex, ey = self.pair_of_sort[e.sort]
            _, ty = self.pair_of_sort[term.sort] if isinstance(term, Var) else self.pair_of_sort[
                term.op.codomain
            ]
            term = App(self.comp_ops[(ex, ey, ty)], (e, term))
        return term

    def normalize(self, term: Term) -> Term:
        return self.from_path(self.to_path(term))

    def size(self, term: Term) -> int:
        return len(self.to_path(term)[1])

    def equal(self, t1, t2, budget=2):
        return _exact_equal(self, t1, t2)

    def enumerate(self, context: Context, sort: Sort, bound: int) -> list[Term]:
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
        return [self.from_path(((x, y), p)) for p in paths]


class BoundedGenericEngine(Engine):
    """Congruence closure over equation instances generated from the
    subterms of the two inputs, closed to a fixed instantiation depth.
    Sound and explicitly incomplete: it never separates terms."""

    exact = False

    def __init__(self, doctrine_ref=None, max_terms: int = 800, max_instances: int = 8000):
        self._doctrine = doctrine_ref
        self.max_terms = max_terms
        self.max_instances = max_instances

    def bind(self, doctrine):
        self._doctrine = doctrine
        return self

    def equal(self, t1: Term, t2: Term, budget: int = 2) -> EqResult:
        doc = self._doctrine
        if doc is None:
            raise UnsupportedDoctrine("generic engine is not bound to a doctrine")
        pool: list[Term] = []
        seen: set[Term] = set()

        def add(t: Term):
            if t in seen or len(pool) >= self.max_terms:
                return
            seen.add(t)
            pool.append(t)
            if isinstance(t, App):
                for a in t.args:
                    add(a)

        add(t1)
        add(t2)
        pairs: list[tuple[Term, Term]] = []
        for _ in range(max(0, budget)):
            by_sort: dict[Sort, list[Term]] = {}
            for t in pool:
                s = t.sort if isinstance(t, Var) else t.op.codomain
                by_sort.setdefault(s, []).append(t)
            new_pairs = []
            for eq in doc.equations:
                cands = [by_sort.get(v.sort, []) for v in eq.context.vars]
                if any(not c for c in cands):
                    continue
                for combo in itertools.product(*cands):
                    if len(pairs) + len(new_pairs) >= self.max_instances:
                        break
                    asg = {v.name: t for v, t in zip(eq.context.vars, combo)}
                    from .signature import substitute

                    li = substitute(eq.lhs, asg)
                    ri = substitute(eq.rhs, asg)
                    new_pairs.append((li, ri))
            for li, ri in new_pairs:
                add(li)
                add(ri)
            pairs.extend(new_pairs)

        uf = UnionFind()
        for li, ri in pairs:
            if li in seen and ri in seen:
                uf.union(li, ri)
        apps = [t for t in pool if isinstance(t, App)]
        changed = True
        while changed:
            changed = False
            sig: dict[tuple, Term] = {}
            for t in apps:
                key = (t.op.name, tuple(uf.find(a) for a in t.args))
                if key in sig:
                    if uf.union(t, sig[key]):
                        changed = True
                else:
                    sig[key] = t
        return EqResult.EQUAL if uf.find(t1) == uf.find(t2) else EqResult.UNKNOWN
