"""Truncated simplicial sets on element positions.

`face_keys` and `degeneracy_keys` hold the index set of the structure
maps of a cap-truncated simplicial object, `structure_maps` builds maps
on it, and `structure_kinds` pairs each kind of map with its keys.  A
`Numbering` is such an object on positions: each level is numbered
once, and every face and degeneracy table is a list of positions, so a
simplicial identity is checked by comparing two composites of such
lists as a whole (`Numbering.identity_failures`).  `table_positions`
is the one routine that puts a table on positions, for simplicial sets
and set-level diagrams (`msat.diagram`) alike: every copy of an element
that a level lists twice reads that element's image.  `number_parts`
numbers the element tables of several simplicial sets at once, as one
disjoint union with a block per part, and spells why each part is not a
simplicial set: the tables that are missing, partial or leave their
level (with -1 where an entry has no position), else every identity
that fails, on the element where it fails.  It is the one check of
every simplicial object in `msat.simplicial`, run once when the object
is built.  `product_numbering` numbers a levelwise product by mixed
radix without building its tuples.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, repeat
from operator import eq, ne, not_, sub

from .search import UnionFind


def face_keys(cap: int) -> list[tuple[int, int]]:
    """(n, i) of every face d_i: X_n -> X_{n-1} below the cap."""
    return [(n, i) for n in range(1, cap + 1) for i in range(n + 1)]


def degeneracy_keys(cap: int) -> list[tuple[int, int]]:
    """(n, j) of every degeneracy s_j: X_n -> X_{n+1} below the cap."""
    return [(n, j) for n in range(cap) for j in range(n + 1)]


def structure_maps(cap: int, face, degeneracy) -> tuple[dict, dict]:
    """The (faces, degeneracies) of a cap-truncated simplicial object,
    keyed in `face_keys` and `degeneracy_keys` order: `face(n, i)` is
    the table of d_i on level n and `degeneracy(n, j)` that of s_j."""
    return ({k: face(*k) for k in face_keys(cap)},
            {k: degeneracy(*k) for k in degeneracy_keys(cap)})


def structure_kinds(cap: int, faces: dict, degeneracies: dict) -> tuple:
    """(name, maps, keys, step) for each kind of structure map, faces
    first: a face lowers the level by one, a degeneracy raises it."""
    return (("face d", faces, face_keys(cap), -1),
            ("degeneracy s", degeneracies, degeneracy_keys(cap), 1))


MISSING, LEAVES = "missing or partial", "leaves the level set"


def first_positions(level: tuple, start: int = 0) -> dict:
    """Each element of a level -> the first position it takes there,
    counting positions from `start`."""
    return dict(zip(reversed(level), range(start + len(level) - 1, start - 1, -1)))


def table_positions(table: dict, level: tuple, first: dict, image_first: dict):
    """(images, keys, bad): a table on a level put on positions, the one
    place where a table becomes a list.  images[k] is the position
    (`image_first`) of the image of the element at position k, the same
    for every copy of an element, and -1 where the table is undefined or
    the image has no position; keys lists the positions (`first`) of the
    table's keys that have one, in table order; bad lists the entries
    (key, image) whose key or image has no position, in table order."""
    try:
        images = list(map(image_first.__getitem__, table.values()))
        if len(table) == len(level) and tuple(table) == level:  # every element once, in order
            start = first[level[0]] if level else 0
            return images, range(start, start + len(level)), ()
        keys = list(map(first.__getitem__, table))
    except KeyError:  # a key or an image with no position
        bad = [(x, y) for x, y in table.items() if x not in first or y not in image_first]
        at = {x: image_first.get(y, -1) for x, y in table.items()}
        return list(map(at.get, level, repeat(-1))), [first[x] for x in table if x in first], bad
    return list(map(dict(zip(table, images)).get, level, repeat(-1))), keys, ()


def number_parts(cap: int, levels: dict, faces: dict, degeneracies: dict):
    """Number a disjoint union of parts at once, and check each part:
    levels[n] lists the parts' level-n tuples, and faces[(n, i)] and
    degeneracies[(n, j)] list their tables (or lack the key).  Part p's
    block of level n starts at offsets[n][p].  Returns (numbering,
    offsets, problems) for any tables of hashable images: problems[p]
    lists why part p is not a simplicial set, in order.  These are its
    tables that do not number (`table_positions`), as "{name}_{i} at
    level {n} {why}", up to the first `MISSING`: a table that is absent,
    or whose keys are not its level's elements, is `MISSING`, and else
    one with an image off the image level `LEAVES`.  Or else they are
    each failed identity, spelt on the element where it fails.  Every
    table ends with an entry -1, so a composite through -1 stays -1."""
    offsets, firsts, canon = [], [], []
    for n in range(cap + 1):
        values = levels[n]
        off = list(accumulate(map(len, values), initial=0))
        level_firsts = list(map(first_positions, values, off))
        offsets.append(off)
        firsts.append(level_firsts)
        canon.append(
            range(off[-1]) if all(map(eq, map(len, level_firsts), map(len, values)))
            else [first[x] for first, value in zip(level_firsts, values) for x in value])
    problems, ended, tables = [[] for _ in levels[0]], set(), []
    for name, maps, keys, step in structure_kinds(cap, faces, degeneracies):
        numbered = {}
        for n, i in keys:
            pieces = []
            for p, (table, level, first, image_first) in enumerate(zip(
                    maps.get((n, i)) or repeat(None), levels[n], firsts[n], firsts[n + step])):
                positions, known, bad = table_positions(table or {}, level, first, image_first)
                pieces.append(positions)
                total = table is not None and len(known) == len(table) == len(first)
                why = MISSING if not total else LEAVES if bad else None
                if why and p not in ended:
                    problems[p].append(f"{name}_{i} at level {n} {why}")
                    if why is MISSING:
                        ended.add(p)
            numbered[(n, i)] = list(chain(chain.from_iterable(pieces), (-1,)))
        tables.append(numbered)
    numbering = Numbering(cap, [off[-1] for off in offsets], canon, *tables)
    tables_ok = [not bad for bad in problems]
    for identity, n, g in numbering.identity_failures():
        p = bisect_right(offsets[n], g) - 1
        if tables_ok[p]:
            problems[p].append(f"{identity} at level {n} on {levels[n][p][g - offsets[n][p]]!r}")
    return numbering, offsets, problems


class Numbering:
    """A truncated simplicial set on element positions.  Level n is
    numbered 0 .. sizes[n]-1 in its own order; an element stands for the
    first position it takes (`canon[n]` sends each position there), so
    two positions are equal exactly when their elements are.  The tables
    of `faces` and `degeneracies`, keyed like a simplicial set's, are
    lists: entry k is the position of the image of position k.  Position
    -1 is no element: a table from `number_parts` ends with an entry -1
    for it, which `block` leaves out."""

    def __init__(self, cap: int, sizes: list, canon: list, faces: dict, degeneracies: dict):
        self.cap = cap
        self.sizes = sizes
        self.canon = canon
        self.faces = faces
        self.degeneracies = degeneracies
        self._nondegenerate = {}

    def nondegenerate(self, n: int) -> list:
        """The positions of level n that no degeneracy hits."""
        nd = self._nondegenerate.get(n)
        if nd is None:
            hit = set().union(*(self.degeneracies[(n - 1, j)] for j in range(n)))
            nd = self._nondegenerate[n] = list(compress(
                range(self.sizes[n]), map(not_, map(hit.__contains__, self.canon[n]))))
        return nd

    def components(self) -> list[list[int]]:
        """The vertex positions of each connected component, in
        first-member order."""
        uf = UnionFind()
        if self.cap >= 1:
            for a, b in zip(self.faces[(1, 0)], self.faces[(1, 1)]):
                uf.union(a, b)
        groups: dict = {}
        for k, c in enumerate(self.canon[0]):
            groups.setdefault(uf.find(c), []).append(k)
        return list(groups.values())

    def boundary_matrices(self) -> list[list[list[int]]]:
        """Normalized-chain boundary matrices; entry [n] maps level n to
        level n-1 (n >= 1), columns and rows in nondegenerate order."""
        mats = [None]
        for n in range(1, self.cap + 1):
            rows, cols = self.nondegenerate(n - 1), self.nondegenerate(n)
            row_of = {self.canon[n - 1][k]: r for r, k in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for i in range(n + 1):
                sign, face = (-1) ** i, self.faces[(n, i)]
                for col, k in enumerate(cols):
                    r = row_of.get(face[k])  # None on a degenerate face
                    if r is not None:
                        mat[r][col] += sign
            mats.append(mat)
        return mats

    def block(self, offsets: list, p: int) -> Numbering:
        """Part p of a numbered disjoint union, on its own positions: at
        level n the part holds positions offsets[n][p] to
        offsets[n][p + 1] - 1."""

        def local(table, n, image):
            piece, start = table[offsets[n][p]:offsets[n][p + 1]], offsets[image][p]
            if type(piece) is range:
                return range(len(piece))
            return list(map(sub, piece, repeat(start))) if start else piece

        return Numbering(
            self.cap, [offsets[n][p + 1] - offsets[n][p] for n in range(self.cap + 1)],
            [local(self.canon[n], n, n) for n in range(self.cap + 1)],
            {(n, i): local(t, n, n - 1) for (n, i), t in self.faces.items()},
            {(n, j): local(t, n, n + 1) for (n, j), t in self.degeneracies.items()},
        )

    def identity_failures(self):
        """(identity, n, k) for each simplicial identity that fails at
        position k of level n, in order: d_i d_j = d_{j-1} d_i (i < j),
        the face/degeneracy relations, s_i s_j = s_{j+1} s_i (i <= j).
        Each identity compares two composites of tables as a whole."""
        d, s = self.faces, self.degeneracies

        def differ(lhs, rhs):
            return compress(count(), map(ne, lhs, rhs))

        for n in range(2, self.cap + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    for k in differ(map(d[(n - 1, i)].__getitem__, d[(n, j)]),
                                    map(d[(n - 1, j - 1)].__getitem__, d[(n, i)])):
                        yield f"d_{i} d_{j} != d_{j-1} d_{i}", n, k
        for n in range(self.cap):
            for j in range(n + 1):
                for i in range(n + 2):
                    if i == j or i == j + 1:
                        want = self.canon[n]
                    elif i < j:
                        want = map(s[(n - 1, j - 1)].__getitem__, d[(n, i)])
                    else:
                        want = map(s[(n - 1, j)].__getitem__, d[(n, i - 1)])
                    for k in differ(map(d[(n + 1, i)].__getitem__, s[(n, j)]), want):
                        yield f"d_{i} s_{j} relation fails", n, k
        for n in range(self.cap - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    for k in differ(map(s[(n + 1, i)].__getitem__, s[(n, j)]),
                                    map(s[(n + 1, j + 1)].__getitem__, s[(n, i)])):
                        yield f"s_{i} s_{j} relation fails", n, k


def _mixed_radix(columns: list, radices: list) -> list[int]:
    """Positions in a product, in `itertools.product` order: the tuple
    of factor positions (c_1, ..., c_k) is the number with digits c_i
    in the given radices (the factors' sizes)."""
    out = columns[0]
    for col, radix in zip(columns[1:], radices[1:]):
        out = [a * radix + b for a in out for b in col]
    return list(out)


def product_numbering(factors: list[Numbering]) -> Numbering:
    """The levelwise product of numbered simplicial sets, numbered in
    `itertools.product` order by mixed radix, without building its
    elements."""
    cap = factors[0].cap
    sizes = [math.prod(f.sizes[n] for f in factors) for n in range(cap + 1)]
    canon = [
        range(sizes[n]) if all(type(f.canon[n]) is range for f in factors)
        else _mixed_radix([f.canon[n] for f in factors], [f.sizes[n] for f in factors])
        for n in range(cap + 1)
    ]

    def combined(kind, step):
        return {key: _mixed_radix([getattr(f, kind)[key] for f in factors],
                                  [f.sizes[key[0] + step] for f in factors])
                for key in getattr(factors[0], kind)}

    return Numbering(cap, sizes, canon, combined("faces", -1), combined("degeneracies", 1))
