"""Seeded random generators for diagrams and simplicial diagrams.

The seed defaults to the MSAT_SEED environment variable so fuzzed runs
are reproducible across processes.
"""

from __future__ import annotations

import itertools
import os
import random

from .diagram import DiagramOnTruncation
from .models import FiniteAlgebra, as_functor
from .signature import Doctrine
from .simplicial import (
    SimplicialDiagram,
    TruncSimplicialSet,
    disjoint_union,
    lifted_maps,
    nerve_of_preorder,
    standard,
)
from .theory_cat import (
    TERMINAL,
    TheoryMorphism,
    TheoryObject,
    generating_morphisms,
    identity,
)


def default_seed() -> int:
    return int(os.environ.get("MSAT_SEED", "0"))


def make_rng(seed: int | None = None) -> random.Random:
    return random.Random(default_seed() if seed is None else seed)


def _swap_morphism(obj: TheoryObject):
    """The transposition variable map on a two-element object with equal
    sorts, None otherwise."""
    if obj.size != 2 or obj.sorts[0] != obj.sorts[1]:
        return None
    v1, v2 = obj.context().vars
    return TheoryMorphism(obj, obj, (v2, v1))


def twisted_algebra_diagram(rng: random.Random, alg: FiniteAlgebra,
                            object_bound: int = 2, term_bound: int = 2,
                            duplicates: int = 0) -> DiagramOnTruncation:
    """The functor of a finite algebra with elements renamed by a random
    bijection, optionally padded with duplicate cells at size-two
    objects.  A duplicate copies one element's outgoing images (in a
    transposition-consistent pair when needed), so the result stays
    functorial but stops being strict."""
    base = as_functor(alg, object_bound, term_bound)
    relabel = {}
    for obj in base.objects():
        labels = [f"{obj.key() or 'pt'}~{i}" for i in range(len(base.value(obj)))]
        rng.shuffle(labels)
        relabel[obj] = dict(zip(base.value(obj), labels))
    values = {obj: tuple(relabel[obj][x] for x in base.value(obj)) for obj in base.objects()}
    arrows = {
        m: {relabel[m.source][x]: relabel[m.target][y] for x, y in t.items()}
        for m, t in base.arrows.items()
    }
    values = {obj: list(v) for obj, v in values.items()}
    for d in range(duplicates):
        candidates = [obj for obj in base.objects() if obj.size == 2 and values[obj]]
        if not candidates:
            break
        obj = rng.choice(candidates)
        x = rng.choice(values[obj])
        swap = _swap_morphism(obj)
        y = arrows[swap][x] if swap else None
        x_dup = f"dup{d}a"
        values[obj].append(x_dup)
        if swap and y != x:
            y_dup = f"dup{d}b"
            values[obj].append(y_dup)
        else:
            y_dup = None
        ident = identity(obj)
        for m, t in arrows.items():
            if m.source != obj:
                continue
            if m == ident:
                t[x_dup] = x_dup
                if y_dup is not None:
                    t[y_dup] = y_dup
                continue
            if swap is not None and m == swap:
                if y_dup is None:
                    t[x_dup] = x_dup if t[x] == x else t[x]
                else:
                    t[x_dup], t[y_dup] = y_dup, x_dup
                continue
            t[x_dup] = t[x]
            if y_dup is not None:
                t[y_dup] = t[y]
    values = {obj: tuple(v) for obj, v in values.items()}
    return DiagramOnTruncation(alg.doctrine, object_bound, term_bound, values, arrows)


def random_trivial_diagram(rng: random.Random, doctrine: Doctrine,
                           flavor: str = "any") -> DiagramOnTruncation:
    """Random functorial diagram on the one-sort, no-op doctrine.

    flavor: "strict" forces full product fibers, "nonlocal" guarantees a
    locality failure, "any" mixes both; "broken" corrupts one arrow
    entry so the functoriality check must reject the result.
    """
    el = doctrine.sorts[0]
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    n = rng.randint(2, 3) if flavor == "broken" else rng.randint(1, 3)
    points = [f"a{i}" for i in range(n)]
    strict = flavor == "strict" or (flavor in ("any",) and rng.random() < 0.5)
    cells: dict[tuple, list] = {}
    for a, b in itertools.product(points, repeat=2):
        if strict:
            count = 1
        elif a == b:
            count = rng.randint(1, 2)
        else:
            count = None  # fixed below, symmetric with the (b, a) count
        if count is not None:
            cells[(a, b)] = [f"c_{a}_{b}_{k}" for k in range(count)]
    if not strict:
        for a, b in itertools.combinations(points, 2):
            count = rng.randint(0, 2)
            cells[(a, b)] = [f"c_{a}_{b}_{k}" for k in range(count)]
            cells[(b, a)] = [f"c_{b}_{a}_{k}" for k in range(count)]
    all_cells = [c for pair in sorted(cells) for c in cells[pair]]
    proj = {}
    for (a, b), cs in cells.items():
        for c in cs:
            proj[c] = (a, b)
    values = {TERMINAL: ("pt",), T1: tuple(points), T2: tuple(all_cells)}
    diag = {a: cells[(a, a)][0] for a in points}
    swap_table = {}
    for (a, b), cs in cells.items():
        for k, c in enumerate(cs):
            swap_table[c] = cells[(b, a)][k]
    arrows = _variable_arrows(doctrine, values, proj, diag, swap_table)
    if flavor == "broken":
        # corrupt one projection entry; the composite through the
        # diagonal must now disagree with the stored table
        target = next(m for m in arrows if m.source == T2 and m.target == T1)
        victim = rng.choice(all_cells)
        current = arrows[target][victim]
        arrows[target][victim] = rng.choice([a for a in points if a != current])
    return DiagramOnTruncation(doctrine, 2, 2, values, arrows)


def _variable_arrows(doctrine: Doctrine, values: dict, coords: dict, diagonal: dict,
                     swap: dict) -> dict:
    """The tables of the generating arrows of the one-sort, no-op
    doctrine at object bound 2 on `values`, a value at the terminal
    object, T1 and T2 (the terminal one a single point).  Every such
    arrow is a variable map, and its values say which source slot each
    target slot picks.  An element x at T2 has the coordinates
    `coords[x]`, `diagonal[a]` is the element at T2 over (a, a), and
    `swap` is the transposition of T2."""
    (point,) = values[TERMINAL]
    arrows = {}
    for m in generating_morphisms(doctrine, 2):
        src = values[m.source]
        picks = [m.source.names.index(v.name) for v in m.values]
        if m.target is TERMINAL:
            arrows[m] = {x: point for x in src}
        elif m is identity(m.source):
            arrows[m] = {x: x for x in src}
        elif m.source.size == 1:
            arrows[m] = {x: diagonal[x] for x in src}
        elif picks == [1, 0]:
            arrows[m] = dict(swap)
        elif m.target.size == 1:
            arrows[m] = {x: coords[x][picks[0]] for x in src}
        else:
            arrows[m] = {x: diagonal[coords[x][picks[0]]] for x in src}
    return arrows


def random_sset(rng: random.Random, cap: int = 3) -> TruncSimplicialSet:
    kind = rng.randrange(7)
    if kind == 0:
        return standard("delta", rng.randint(0, 2), cap=cap)
    if kind == 1:
        return standard("boundary", rng.randint(1, 2), cap=cap)
    if kind == 2:
        return standard("horn", 2, rng.randint(0, 2), cap=cap)
    if kind == 3:
        n = rng.randint(1, 3)
        rel = {(i, i) for i in range(n)}
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    rel.add((i, j))
        changed = True  # reflexive-transitive closure: nerves need preorders
        while changed:
            changed = False
            for a, b in list(rel):
                for c, d in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        return nerve_of_preorder(range(n), lambda a, b: (a, b) in rel, cap=cap)
    if kind == 4:
        return disjoint_union(
            standard("delta", 0, cap=cap), standard("delta", rng.randint(0, 1), cap=cap)
        )
    if kind == 5:
        return disjoint_union(standard("boundary", 2, cap=cap), standard("delta", 0, cap=cap))
    return standard("delta", 1, cap=cap)


def product_simplicial_diagram(doctrine: Doctrine, S: TruncSimplicialSet,
                               inflate: bool = False) -> SimplicialDiagram:
    """Levelwise product diagram of a simplicial set on the one-sort,
    no-op doctrine; `inflate` adds a diagonal copy at the square object,
    which keeps functoriality and naturality but breaks strictness."""
    el = doctrine.sorts[0]
    T1, T2 = TheoryObject.of(el), TheoryObject.of(el, el)
    cap = S.cap
    levels = []

    def level_values(n):
        pairs = list(itertools.product(S.level(n), repeat=2))
        extra = [("d", x) for x in S.level(n)] if inflate else []
        return {
            TERMINAL: ((),),
            T1: tuple(S.level(n)),
            T2: tuple(pairs + extra),
        }

    def levelwise(n, t):
        """The tables at every object of the structure map whose table on
        S is t: coordinatewise on pairs, and a diagonal copy goes to the
        copy of its element's image."""
        images = list(map(t.__getitem__, S.level(n)))
        square = list(itertools.product(images, repeat=2))
        if inflate:
            square += [("d", y) for y in images]
        return {TERMINAL: {(): ()}, T1: dict(zip(S.level(n), images)),
                T2: dict(zip(levels[n].value(T2), square))}

    for n in range(cap + 1):
        vals = level_values(n)
        coords = {x: (x[1], x[1]) if inflate and x[0] == "d" else x for x in vals[T2]}
        swap = {x: x if inflate and x[0] == "d" else (x[1], x[0]) for x in vals[T2]}
        diagonal = {x: (x, x) for x in vals[T1]}
        arrows = _variable_arrows(doctrine, vals, coords, diagonal, swap)
        levels.append(DiagramOnTruncation(doctrine, 2, 2, vals, arrows))
    return SimplicialDiagram(doctrine, cap, levels, *lifted_maps(cap, levelwise, S))
