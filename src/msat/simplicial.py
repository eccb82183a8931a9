"""Truncated simplicial sets and simplicial theory-indexed diagrams.

Everything is truncated at a dimension cap (default 3).  The index set
of the structure maps and the maps built on it (`structure_maps`) live
in `msat.numbering`; a simplicial diagram or algebra whose maps do not
fit it raises `InvalidParameter`.  Weak equivalence is never decided:
the homotopy probe only refutes, by comparing connected components and
integral homology (normalized chains, Smith normal form) below the cap.

Every simplicial set, diagram and algebra is checked and numbered once,
when it is built, by one call of `number_parts` (`msat.numbering`), and
raises `InvalidParameter` on the first problem; `identity_problems` and
`SimplicialDiagram.structure_problems` list every problem of tables
without keeping anything.  Checks and invariants run on element
positions, for valid and malformed tables alike: each level is numbered
once, every structure map table becomes a list of positions, and an
identity or naturality square is checked by comparing two composites of
such lists as a whole.  An element is read only where they differ, to
spell the message.  A simplicial diagram (algebra) numbers the level
sets of all its objects (sorts) together, as one disjoint union; the
probe reads each object's block of it, and numbers a product by mixed
radix without building its tuples.  `smith_normal_form` takes the unit
pivots on sparse rows before the dense reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import add, ne

from .diagram import DiagramOnTruncation
from .errors import InvalidParameter, UnsupportedDoctrine
from .models import FiniteAlgebra, as_functor, check_equations, check_product_preservation
from .numbering import Numbering, number_parts, product_numbering, structure_kinds, structure_maps
from .presentations import AlgebraPresentation, free_presentation
from .signature import Context, Doctrine, Sort, Var, enumerate_terms, enumerate_values
from .theory_cat import TheoryObject

DEFAULT_DIM_CAP = 3


def lifted_maps(cap: int, rule, *sources) -> tuple[dict, dict]:
    """Structure maps given by one rule for both kinds: the table at
    (n, i) is `rule(n, t, ...)`, with t each source's own map at (n, i).
    Sources are anything with `faces` and `degeneracies`."""
    return structure_maps(
        cap,
        lambda n, i: rule(n, *(x.faces[(n, i)] for x in sources)),
        lambda n, j: rule(n, *(x.degeneracies[(n, j)] for x in sources)),
    )


def objectwise(levels: list, image):
    """The `lifted_maps` rule of a simplicial diagram given elementwise:
    its table at (n, i) sends x in the level-n value at obj to
    `image(t, obj, x)`, with t the source map at (n, i)."""
    return lambda n, t: {
        obj: {x: image(t, obj, x) for x in levels[n].value(obj)} for obj in levels[n].objects()
    }


def _index_problem(cap: int, faces: dict, degeneracies: dict, parts, outside: str) -> str | None:
    """Why per-part structure maps do not fit the cap, or None: their
    keys must be exactly `face_keys(cap)` and `degeneracy_keys(cap)`,
    and each map needs a table at every part (object or sort) and at
    nothing else (`outside` names where the rest lies)."""
    for name, maps, keys, _ in structure_kinds(cap, faces, degeneracies):
        index = set(keys)
        for key in maps:
            if key not in index:
                return f"{name} key {key!r} is not an index below the cap {cap}"
        for n, i in keys:
            if (n, i) not in maps:
                return f"{name}_{i} at level {n} missing"
            for part in parts:
                if part not in maps[(n, i)]:
                    return f"{name}_{i} at level {n} has no table at {part}"
            if len(maps[(n, i)]) != len(parts):
                stray = next(part for part in maps[(n, i)] if part not in parts)
                return f"{name}_{i} at level {n} has a table at {stray} outside {outside}"
    return None


def _number_sset(cap: int, levels: dict, faces: dict, degeneracies: dict):
    """(numbering, problems) of one simplicial set: `number_parts` on a
    union of one part, whose level n is the tuple of `levels.get(n)`."""
    numbering, _, _, (problems,) = number_parts(
        cap, {n: [tuple(levels.get(n, ()))] for n in range(cap + 1)},
        {k: [t] for k, t in faces.items()}, {k: [t] for k, t in degeneracies.items()})
    return numbering, problems


def identity_problems(cap: int, levels: dict, faces: dict, degeneracies: dict) -> list[str]:
    """Why the tables are not a cap-truncated simplicial set: the maps'
    totality and range problems, else every failed simplicial identity
    (`number_parts`); empty when they are one."""
    return _number_sset(cap, levels, faces, degeneracies)[1]


class TruncSimplicialSet:
    """A cap-truncated simplicial set: element tuples per level and
    element tables for the structure maps.  It is checked and numbered
    once, when built (`number_parts`), and raises `InvalidParameter` on
    the first problem; the tables are read-only afterwards, and its
    invariants run on `numbering`."""

    def __init__(self, cap: int, levels: dict, faces: dict, degeneracies: dict):
        if cap < 0:
            raise InvalidParameter("dimension cap must be >= 0")
        self.cap = cap
        self.levels = {n: tuple(levels.get(n, ())) for n in range(cap + 1)}
        self.faces = {k: dict(v) for k, v in faces.items()}
        self.degeneracies = {k: dict(v) for k, v in degeneracies.items()}
        self.numbering, problems = _number_sset(cap, self.levels, self.faces, self.degeneracies)
        if problems:
            raise InvalidParameter("not a simplicial set: " + problems[0])

    def level(self, n: int):
        return self.levels[n]

    def nondegenerate(self, n: int) -> list:
        level = self.levels[n]
        return [level[k] for k in self.numbering.nondegenerate(n)]

    def pi0_classes(self) -> list[frozenset]:
        """Connected components of the vertices, in first-member order."""
        level = self.levels[0]
        return [frozenset(level[k] for k in group) for group in self.numbering.components()]


def standard(kind: str, n: int, k: int | None = None, cap: int = DEFAULT_DIM_CAP) -> TruncSimplicialSet:
    """The n-simplex, its boundary, or the horn with the k-th face
    removed, truncated at the cap.  Simplices are monotone tuples."""
    if n < 0:
        raise InvalidParameter("dimension must be >= 0")
    if kind == "delta":
        member = lambda seq: True
    elif kind == "boundary":
        member = lambda seq: len(set(seq)) < n + 1
    elif kind == "horn":
        if n < 1 or k is None or not 0 <= k <= n:
            raise InvalidParameter("horn(n,k) needs n >= 1 and 0 <= k <= n")
        member = lambda seq: any(i not in set(seq) for i in range(n + 1) if i != k)
    else:
        raise InvalidParameter(f"unknown standard simplicial set {kind!r}")
    levels = {}
    for m in range(cap + 1):
        levels[m] = tuple(
            seq for seq in itertools.combinations_with_replacement(range(n + 1), m + 1)
            if member(seq)
        )
    return _sequence_sset(cap, levels)


def nerve_of_preorder(elements, leq, cap: int = DEFAULT_DIM_CAP) -> TruncSimplicialSet:
    """Nerve of a preorder: level m is the set of (m+1)-chains."""
    elements = tuple(elements)
    levels = {0: tuple((e,) for e in elements)}
    for m in range(1, cap + 1):
        levels[m] = tuple(
            chain + (e,)
            for chain in levels[m - 1]
            for e in elements
            if leq(chain[-1], e)
        )
    return _sequence_sset(cap, levels)


def _sequence_sset(cap: int, levels: dict) -> TruncSimplicialSet:
    """Level m holds (m+1)-tuples; d_i drops entry i, s_j repeats entry
    j: both keep `copies` of the entry, 0 for a face, 2 for a degeneracy."""

    def keep(copies):
        return lambda m, i: {s: s[:i] + s[i:i + 1] * copies + s[i + 1:] for s in levels[m]}

    return TruncSimplicialSet(cap, levels, *structure_maps(cap, keep(0), keep(2)))


def disjoint_union(a: TruncSimplicialSet, b: TruncSimplicialSet) -> TruncSimplicialSet:
    cap = min(a.cap, b.cap)
    levels = {
        m: tuple((0, x) for x in a.levels[m]) + tuple((1, x) for x in b.levels[m])
        for m in range(cap + 1)
    }

    def tagged(n, ta, tb):
        return {**{(0, x): (0, y) for x, y in ta.items()},
                **{(1, x): (1, y) for x, y in tb.items()}}

    return TruncSimplicialSet(cap, levels, *lifted_maps(cap, tagged, a, b))


# -- integral homology ---------------------------------------------------


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Invariant factors (positive, divisibility-ordered) of an integer
    matrix.  Unit pivots go first, on sparse rows: a +-1 entry splits
    off an invariant factor 1 and leaves an integral rest (its Schur
    complement).  Each column is visited once, pivoting on its sparsest
    unit row; the dense reduction runs on what remains."""
    rows = {}
    for r, row in enumerate(mat):
        entries = dict(compress(enumerate(row), row))
        if entries:
            rows[r] = entries
    cols: dict[int, set] = {}
    for r, entries in rows.items():
        for c in entries:
            cols.setdefault(c, set()).add(r)
    units = 0
    for c in sorted(cols):
        col = cols.pop(c)
        pivots = [r for r in col if rows[r][c] in (1, -1)]
        if not pivots:
            cols[c] = col
            continue
        p = min(pivots, key=lambda r: len(rows[r]))
        prow = rows.pop(p)
        sign = prow.pop(c)
        for k in prow:
            cols[k].discard(p)
        col.discard(p)
        for r in col:
            row = rows[r]
            q = row.pop(c) * sign
            for k, v in prow.items():
                new = row.get(k, 0) - q * v
                if new:
                    if k not in row:
                        cols[k].add(r)
                    row[k] = new
                else:
                    del row[k]
                    cols[k].discard(r)
            if not row:
                del rows[r]
        units += 1
    rest = sorted(c for c, col in cols.items() if col)
    return [1] * units + _dense_smith_normal_form(
        [[row.get(c, 0) for c in rest] for row in rows.values()])


def _dense_smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Invariant factors of an integer matrix, by repeated pivot
    reduction."""
    m = [list(row) for row in mat]
    R = len(m)
    C = len(m[0]) if R else 0
    diag = []
    t = 0
    while t < min(R, C):
        pr = pc = best = None
        for i in range(t, R):
            for j in range(t, C):
                if m[i][j] and (best is None or abs(m[i][j]) < best):
                    pr, pc, best = i, j, abs(m[i][j])
        if pr is None:
            break
        m[t], m[pr] = m[pr], m[t]
        for row in m:
            row[t], row[pc] = row[pc], row[t]
        while True:
            for i in range(t + 1, R):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            for j in range(t + 1, C):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if all(m[i][t] == 0 for i in range(t + 1, R)) and all(
                m[t][j] == 0 for j in range(t + 1, C)
            ):
                break
        diag.append(abs(m[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if a and b % a:
                    g = math.gcd(a, b)
                    diag[i], diag[j] = g, a * b // g
                    changed = True
    return sorted(d for d in diag if d)


def homology_invariants(X: TruncSimplicialSet, upto: int) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, torsion factors) for H_i, i = 0..upto-1, computed from the
    normalized chain complex.  Needs upto <= cap."""
    return _homology(X.numbering, upto)


def _homology(N: Numbering, upto: int) -> list[tuple[int, tuple[int, ...]]]:
    if upto > N.cap:
        raise InvalidParameter("homology beyond the dimension cap")
    mats = N.boundary_matrices()
    snfs = [[]] + [smith_normal_form(mats[n]) for n in range(1, N.cap + 1)]
    out = []
    for i in range(upto):
        kernel = len(N.nondegenerate(i)) - len(snfs[i])
        above = snfs[i + 1] if i + 1 <= N.cap else []
        out.append((kernel - len(above), tuple(d for d in above if d > 1)))
    return out


def _invariants(N: Numbering) -> dict:
    return {"pi0": len(N.components()), "homology": _homology(N, N.cap)}


# -- simplicial diagrams -------------------------------------------------


class SimplicialDiagram:
    """A dimension-capped tower of set-valued diagrams with face and
    degeneracy transformations between consecutive levels.  It is
    checked once, when built (`structure_problems`), and keeps the
    numbering of its level sets that the check made; the tables are
    read-only afterwards, and the probe reads each object's block of
    that numbering."""

    def __init__(self, doctrine: Doctrine, cap: int, levels: list[DiagramOnTruncation],
                 faces: dict, degeneracies: dict):
        if cap < 0:
            raise InvalidParameter("dimension cap must be >= 0")
        if len(levels) != cap + 1:
            raise InvalidParameter("need one diagram per level up to the cap")
        self.doctrine = doctrine
        self.cap = cap
        self.levels = list(levels)
        self.faces = {k: {o: dict(t) for o, t in v.items()} for k, v in faces.items()}
        self.degeneracies = {
            k: {o: dict(t) for o, t in v.items()} for k, v in degeneracies.items()
        }
        problems, self._union = self._check()
        if problems:
            raise InvalidParameter("bad simplicial diagram: " + problems[0])
        self._numberings = {}

    def objects(self):
        return self.levels[0].objects()

    def structure_problems(self) -> list[str]:
        """Why the tables, as they are now, are not a simplicial
        diagram: a key or table missing, the first problem of each
        object whose values are not a simplicial set (`number_parts`),
        then every structure map entry that is not natural for a level
        arrow.  Reads the tables afresh and changes nothing."""
        return self._check()[0]

    def _check(self):
        """(problems, (union, offsets)) for `structure_problems`, with
        None for the union when the objects or keys are wrong.  Numbers
        the level sets of all objects, valid or not, as one disjoint
        union with a block per object (`number_parts`); an arrow entry
        is read only where two composites on its positions differ."""
        objects = self.objects()
        if any(L.objects() != objects for L in self.levels):
            return ["level diagrams disagree on their objects"], None
        problem = _index_problem(self.cap, self.faces, self.degeneracies, objects,
                                 "the truncation")
        if problem:
            return [problem], None
        union, offsets, firsts, per_object = number_parts(
            self.cap, {n: [L.value(obj) for obj in objects] for n, L in enumerate(self.levels)},
            {k: [v[obj] for obj in objects] for k, v in self.faces.items()},
            {k: [v[obj] for obj in objects] for k, v in self.degeneracies.items()})
        problems = [f"at {obj}: not a simplicial set: {found[0]}"
                    for obj, found in zip(objects, per_object) if found]
        differ = self._naturality_on_positions(union, offsets, firsts)
        # naturality of structure maps against the level diagrams: for an
        # entry x -> y of a level-n arrow m and the structure map t at
        # (n, i), t(y) = m(t(x)) at the level t maps to, where defined
        entries = []  # per level: the arrow, key and image of each entry
        for L in self.levels:
            tables = L.arrows.values()
            entries.append((list(chain.from_iterable(map(repeat, L.arrows, map(len, tables)))),
                            list(chain.from_iterable(tables)),
                            list(chain.from_iterable(map(dict.values, tables)))))
        for name, maps, keys, step in structure_kinds(self.cap, self.faces, self.degeneracies):
            for n, i in keys:
                tables, image = maps[(n, i)], self.levels[n + step]
                at, xs, ys = entries[n]
                for k in differ(n, i, step):
                    m, x = at[k], xs[k]
                    itable = image.arrows.get(m, {})
                    fx = tables[m.source].get(x)
                    fy = tables[m.target].get(ys[k])
                    if fx is not None and fx in itable and fy is not None:
                        if itable[fx] != fy:
                            problems.append(
                                f"{name}_{i} at level {n} not natural for {m} at {x!r}"
                            )
        return problems, (union, offsets)

    def _naturality_on_positions(self, union: Numbering, offsets: list, firsts: list):
        """A function (n, i, step) -> the level-n arrow entries, in order,
        at which t(y) and m(t(x)) differ as positions of the levels'
        numbering, with t the structure map at (n, i); every naturality
        problem is among them.  A level's arrows are one run of entries,
        and each arrow has a block of the level's lookup table (-1 where
        the arrow is undefined), so a structure map is one composite over
        the whole level.  Where t is -1 (no image) the element test never
        fails, and the read stays in range: the table holds one -1 more."""
        objects = self.objects()
        sources, targets, lookups, bases = [], [], [], []
        for n, L in enumerate(self.levels):
            off = dict(zip(objects, offsets[n]))
            first = dict(zip(objects, firsts[n]))
            src, tgt, look, base = [], [], [], {}
            for m, table in L.arrows.items():  # well formed: keys and images are values
                to = list(map(first[m.target].__getitem__, table.values()))
                values = L.value(m.source)
                start, size = off[m.source], len(values)
                base[m] = len(look) - start
                if len(table) == size and tuple(table) == values:
                    src.extend(range(start, start + size))
                    look.extend(to)
                else:
                    at = list(map(first[m.source].__getitem__, table))
                    src.extend(at)
                    look.extend(map(dict(zip(at, to)).get, range(start, start + size),
                                    repeat(-1)))
                tgt.extend(to)
            missing = len(look)  # the block of an arrow this level lacks
            look.extend(repeat(-1, offsets[n][-1] + 1))
            sources.append(src)
            targets.append(tgt)
            lookups.append(look)
            bases.append((base, missing))
        shifts = {}  # (n, image level) -> per entry, where its arrow's block starts

        def differ(n, i, step):
            image = n + step
            t = (union.faces if step < 0 else union.degeneracies)[(n, i)]
            shift = shifts.get((n, image))
            if shift is None:
                base, missing = bases[image]
                shift = shifts[(n, image)] = list(chain.from_iterable(
                    repeat(base.get(m, missing), len(table))
                    for m, table in self.levels[n].arrows.items()))
            lhs = map(lookups[image].__getitem__, map(add, shift, map(t.__getitem__, sources[n])))
            return compress(count(), map(ne, lhs, map(t.__getitem__, targets[n])))

        return differ

    def object_numbering(self, obj: TheoryObject) -> Numbering:
        """The numbering of the simplicial set at obj: its block of the
        numbering the check made, cut once."""
        N = self._numberings.get(obj)
        if N is None:
            union, offsets = self._union
            N = self._numberings[obj] = union.block(offsets, self.objects().index(obj))
        return N

    def product_numbering(self, obj: TheoryObject) -> Numbering:
        """The levelwise product of the size-one values of obj's sorts,
        numbered by mixed radix from their numberings."""
        return product_numbering([self.object_numbering(TheoryObject.of(s)) for s in obj.sorts])


def check_strict(X: SimplicialDiagram):
    """Levelwise bijectivity of every canonical map; failures name the
    (level, object) pairs."""
    failures = []
    for n, level in enumerate(X.levels):
        failures.extend({**f, "level": n} for f in check_product_preservation(level)[1])
    return (not failures), failures


@dataclass
class ProbeResult:
    passed: bool
    refuted_at: tuple | None = None
    terminal_flag: str | None = None
    details: list = field(default_factory=list)


def homotopy_probe(X: SimplicialDiagram) -> ProbeResult:
    """Necessary conditions for the canonical maps to be weak
    equivalences: equal component counts and equal homology below the
    cap.  Refutation-only; passing does not decide weak equivalence.
    The terminal object's contractibility is reported separately."""
    result = ProbeResult(passed=True)
    for obj in X.objects():
        if obj.size == 1:
            continue
        dom_inv = _invariants(X.object_numbering(obj))
        if obj.size == 0:
            point = {"pi0": 1, "homology": [(1 if i == 0 else 0, ()) for i in range(X.cap)]}
            if dom_inv != point:
                result.terminal_flag = (
                    f"value at the terminal object is not point-like: {dom_inv}"
                )
            continue
        cod_inv = _invariants(X.product_numbering(obj))
        result.details.append({"object": obj.key(), "value": dom_inv, "product": cod_inv})
        if dom_inv["pi0"] != cod_inv["pi0"]:
            result.passed = False
            result.refuted_at = (obj.key(), "pi0", dom_inv["pi0"], cod_inv["pi0"])
            return result
        for i, (dv, cv) in enumerate(zip(dom_inv["homology"], cod_inv["homology"])):
            if dv != cv:
                result.passed = False
                result.refuted_at = (obj.key(), f"H{i}", dv, cv)
                return result
    return result


# -- simplicial algebras -------------------------------------------------


class SimplicialAlgebra:
    def __init__(self, doctrine: Doctrine, cap: int, levels: list[FiniteAlgebra],
                 faces: dict, degeneracies: dict):
        if cap < 0:
            raise InvalidParameter("dimension cap must be >= 0")
        if len(levels) != cap + 1:
            raise InvalidParameter("need one algebra per level up to the cap")
        sorts = doctrine.sorts
        problem = _index_problem(cap, faces, degeneracies, sorts, "the doctrine's sorts")
        if problem:
            raise InvalidParameter("bad simplicial algebra: " + problem)
        self.doctrine = doctrine
        self.cap = cap
        self.levels = list(levels)
        self.faces = faces
        self.degeneracies = degeneracies
        for alg in levels:
            bad = check_equations(alg)
            if bad:
                raise InvalidParameter(f"level algebra {alg.name} violates {bad[0][0].name}")
        # the sorts as the parts of one simplicial set, before the homomorphism check
        carriers = {n: [tuple(alg.carriers[s]) for s in sorts] for n, alg in enumerate(levels)}
        _, _, _, problems = number_parts(
            cap, carriers, *lifted_maps(cap, lambda n, comp: [comp[s] for s in sorts], self))
        for found in problems:
            if found:
                raise InvalidParameter("not a simplicial set: " + found[0])
        for name, maps, keys, step in structure_kinds(cap, faces, degeneracies):
            for n, i in keys:
                label = f"{name}_{i} at level {n}"
                self._check_hom(self.levels[n], self.levels[n + step], maps[(n, i)], label)

    def _check_hom(self, A, B, comp, label):
        for op in self.doctrine.ops:
            for args in itertools.product(*(A.carriers[s] for s in op.domain)):
                mapped = tuple(comp[s][a] for s, a in zip(op.domain, args))
                if comp[op.codomain][A.tables[op.name][args]] != B.tables[op.name][mapped]:
                    raise InvalidParameter(f"structure map {label} is not a homomorphism")

    def as_diagram(self, object_bound: int = 2, term_bound: int = 2) -> SimplicialDiagram:
        levels = [as_functor(a, object_bound, term_bound) for a in self.levels]

        def slotwise(comp, obj, x):
            return tuple(comp[s][c] for s, c in zip(obj.sorts, x))

        maps = lifted_maps(self.cap, objectwise(levels, slotwise), self)
        return SimplicialDiagram(self.doctrine, self.cap, levels, *maps)


def constant_simplicial_algebra(alg: FiniteAlgebra, cap: int = DEFAULT_DIM_CAP) -> SimplicialAlgebra:
    ident = {s: {e: e for e in alg.carriers[s]} for s in alg.carriers}
    faces, degens = structure_maps(cap, lambda n, i: ident, lambda n, j: ident)
    return SimplicialAlgebra(alg.doctrine, cap, [alg] * (cap + 1), faces, degens)


def classifying_simplicial_algebra(group_alg: FiniteAlgebra, cap: int = DEFAULT_DIM_CAP) -> SimplicialAlgebra:
    """Levelwise powers of an abelian group model, with the bar-style
    face maps; level k carries the k-th power algebra."""
    doc = group_alg.doctrine
    g = doc.sort("G")
    G = group_alg.carriers[g]
    mul = group_alg.tables["mul"]
    unit = group_alg.tables["e"][()]
    levels = []
    for k in range(cap + 1):
        carrier = tuple(itertools.product(G, repeat=k))
        tables = {
            "mul": {
                (a, b): tuple(mul[(x, y)] for x, y in zip(a, b))
                for a in carrier
                for b in carrier
            },
            "inv": {(a,): tuple(group_alg.tables["inv"][(x,)] for x in a) for a in carrier},
            "e": {(): tuple(unit for _ in range(k))},
        }
        levels.append(FiniteAlgebra(doc, {g: carrier}, tables, f"{group_alg.name}^{k}"))

    def face(n, i):
        def image(a):
            if i == 0:
                return a[1:]
            if i == n:
                return a[:-1]
            return a[: i - 1] + (mul[(a[i - 1], a[i])],) + a[i + 1:]

        return {g: {a: image(a) for a in levels[n].carriers[g]}}

    def degeneracy(n, j):
        return {g: {a: a[:j] + (unit,) + a[j:] for a in levels[n].carriers[g]}}

    return SimplicialAlgebra(doc, cap, levels, *structure_maps(cap, face, degeneracy))


# -- degreewise free simplicial algebras ----------------------------------


class DegreewiseFreeDiagram:
    """The free simplicial algebra on a simplicial set placed in one
    sort: level k is the free algebra on the k-simplices, with faces and
    degeneracies acting on generators and extended to terms.  Values are
    exposed lazily through bounded enumeration."""

    def __init__(self, doctrine: Doctrine, sort: Sort, Y: TruncSimplicialSet):
        if not doctrine.exact:
            raise UnsupportedDoctrine("degreewise free algebras need an exact engine")
        self.doctrine = doctrine
        self.sort = sort
        self.Y = Y
        self.cap = Y.cap
        self._gen: dict[int, dict] = {}
        for k in range(self.cap + 1):
            self._gen[k] = {
                simplex: Var(f"y{k}_{idx}", sort)
                for idx, simplex in enumerate(Y.level(k))
            }

    def generator(self, k: int, simplex) -> Var:
        return self._gen[k][simplex]

    def presentation(self, k: int) -> AlgebraPresentation:
        return free_presentation(
            self.doctrine,
            {self.sort: tuple(v.name for v in self._gen[k].values())},
            name=f"free-level-{k}",
        )

    def context(self, k: int) -> Context:
        return Context(tuple(self._gen[k].values()))

    def _act(self, k: int, table: dict, k_to: int, value):
        """The value with each level-k generator renamed to the level-k_to
        generator of its simplex's image under the structure map `table`."""
        ren = {var.name: self._gen[k_to][table[s]] for s, var in self._gen[k].items()}
        return self.doctrine.engine.bind(value, ren, self.sort)

    def face(self, k: int, i: int, value):
        """d_i of a level-k value: its generators renamed along d_i of Y."""
        return self._act(k, self.Y.faces[(k, i)], k - 1, value)

    def degeneracy(self, k: int, j: int, value):
        """s_j of a level-k value: its generators renamed along s_j of Y."""
        return self._act(k, self.Y.degeneracies[(k, j)], k + 1, value)

    def enumerate_value(self, k: int, obj: TheoryObject, bound: int) -> list[tuple]:
        ctx = self.context(k)
        per_slot = [enumerate_terms(ctx, s, self.doctrine, bound) for s in obj.sorts]
        return list(itertools.product(*per_slot))

    def check_identities(self, bound: int = 2) -> list[str]:
        """Every simplicial identity on the enumerated fragments: the
        `identity_problems` of the truncated simplicial set of the
        engine's values of size <= bound at each level.  The fragments
        are closed under the structure maps, since renaming generators
        never grows a value."""
        levels = {
            k: enumerate_values(self.context(k), self.sort, self.doctrine, bound)
            for k in range(self.cap + 1)
        }
        maps = structure_maps(
            self.cap,
            lambda k, i: {v: self.face(k, i, v) for v in levels[k]},
            lambda k, j: {v: self.degeneracy(k, j, v) for v in levels[k]},
        )
        return identity_problems(self.cap, levels, *maps)


def degreewise_free(doctrine: Doctrine, sort: Sort, Y: TruncSimplicialSet) -> DegreewiseFreeDiagram:
    return DegreewiseFreeDiagram(doctrine, sort, Y)
