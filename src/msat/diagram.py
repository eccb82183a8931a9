"""Set-valued diagrams on a truncation of the theory category.

A DiagramOnTruncation stores finite value sets for every object up to
the object bound and transition tables for the generating morphisms.
Tables may be partial (truncated representables drop images that leave
the enumerated fragment); checks and solvers only constrain where a
table is defined.  Natural transformations into a functor are the
solutions of one constraint per defined table entry (`search.solve`).
"""

from __future__ import annotations

import itertools

from .errors import InvalidParameter
from .search import solve
from .signature import Doctrine, print_term
from .theory_cat import (
    TheoryMorphism,
    TheoryObject,
    compose,
    generating_morphisms,
    hom_enumerate,
    identity,
    objects_up_to,
    projection,
)


class DiagramOnTruncation:
    def __init__(self, doctrine: Doctrine, object_bound: int, term_bound: int,
                 values: dict, arrows: dict, check: bool = True):
        self.doctrine = doctrine
        self.object_bound = object_bound
        self.term_bound = term_bound
        self._objects = objects_up_to(doctrine, object_bound)
        self.values = {obj: tuple(values.get(obj, ())) for obj in self._objects}
        self.arrows = {m: dict(t) for m, t in arrows.items()}
        self._closure_cache = None
        if check:
            problems = self.well_formed_problems()
            if problems:
                raise InvalidParameter("malformed diagram: " + "; ".join(problems[:3]))

    def objects(self):
        return list(self._objects)

    def value(self, obj: TheoryObject):
        return self.values[obj]

    def well_formed_problems(self):
        problems = []
        for m, table in self.arrows.items():
            if m.source not in self.values or m.target not in self.values:
                problems.append(f"arrow {m} leaves the truncation")
                continue
            src = set(self.values[m.source])
            tgt = set(self.values[m.target])
            for x, y in table.items():
                if x not in src:
                    problems.append(f"arrow {m}: {x!r} not in source values")
                if y not in tgt:
                    problems.append(f"arrow {m}: image {y!r} not in target values")
        return problems

    def morphism_size(self, m: TheoryMorphism) -> int:
        return max((self.doctrine.engine.size(t) for t in m.terms), default=0)

    def arrow_closure(self):
        """All morphism actions derivable from the given arrows by
        composition, staying within the term bound.  Returns
        (closure dict, conflicts list); a conflict is a functoriality
        violation."""
        if self._closure_cache is not None:
            return self._closure_cache
        closure: dict[TheoryMorphism, dict] = {}
        conflicts: list[str] = []
        for obj in self._objects:
            ident = identity(obj)
            closure[ident] = {x: x for x in self.values[obj]}
        for m, table in self.arrows.items():
            self._merge(closure, m, table, conflicts)
        changed = True
        while changed:
            changed = False
            items = list(closure.items())
            for f, ftab in items:
                for g, gtab in items:
                    if f.target != g.source:
                        continue
                    h = compose(self.doctrine, g, f)
                    if self.morphism_size(h) > self.term_bound:
                        continue
                    htab = {}
                    for x, y in ftab.items():
                        if y in gtab:
                            htab[x] = gtab[y]
                    if not htab:
                        continue
                    if self._merge(closure, h, htab, conflicts):
                        changed = True
        self._closure_cache = (closure, conflicts)
        return self._closure_cache

    def _merge(self, closure, m, table, conflicts):
        if m not in closure:
            closure[m] = dict(table)
            return True
        existing = closure[m]
        grew = False
        for x, y in table.items():
            if x in existing:
                if existing[x] != y:
                    conflicts.append(
                        f"arrow {m}: composite images disagree at {x!r}: "
                        f"{existing[x]!r} vs {y!r}"
                    )
            else:
                existing[x] = y
                grew = True
        return grew

    def check_functorial(self):
        """Functoriality on all composable generating pairs whose
        composite stays within bounds; identity arrows must act as the
        identity.  Returns a list of violation descriptions."""
        problems = []
        for m, table in self.arrows.items():
            if m.source == m.target and m == identity(m.source):
                for x, y in table.items():
                    if x != y:
                        problems.append(f"identity arrow of {m.source} moves {x!r} to {y!r}")
        _, conflicts = self.arrow_closure()
        problems.extend(conflicts)
        return problems

    def act(self, m: TheoryMorphism, x):
        """Apply the action of a (possibly composite) morphism; None if
        it is not derivable or not defined at x."""
        if m in self.arrows and x in self.arrows[m]:
            return self.arrows[m][x]
        closure, _ = self.arrow_closure()
        table = closure.get(m)
        if table is None:
            return None
        return table.get(x)

    def projection_table(self, obj: TheoryObject, i: int):
        return self.arrows.get(projection(obj, [i]))

    def canonical_map(self, obj: TheoryObject):
        """The projection-induced map X(obj) -> prod_i X(T_sort_i), or
        None when some projection table is missing/partial."""
        n = obj.size
        tables = []
        for i in range(1, n + 1):
            t = self.projection_table(obj, i)
            if t is None:
                return None
            tables.append(t)
        out = {}
        for x in self.values[obj]:
            try:
                out[x] = tuple(t[x] for t in tables)
            except KeyError:
                return None
        return out

    def singleton_product(self, obj: TheoryObject):
        factors = [self.values[TheoryObject.of(s)] for s in obj.sorts]
        return list(itertools.product(*factors))


def product_comparison(X: DiagramOnTruncation, obj: TheoryObject):
    """(verdict, detail) for the canonical map at one object."""
    if obj.size == 0:
        ok = len(X.value(obj)) == 1
        return ok, {"object": obj.key(), "value": len(X.value(obj)), "product": 1}
    cmap = X.canonical_map(obj)
    detail = {"object": obj.key(), "value": len(X.value(obj))}
    prod = X.singleton_product(obj)
    detail["product"] = len(prod)
    if cmap is None:
        detail["error"] = "projection tables missing"
        return False, detail
    images = list(cmap.values())
    ok = len(set(images)) == len(images) and set(images) == set(prod)
    return ok, detail


# -- functors induced by algebras and representables --------------------


def representable_diagram(doctrine: Doctrine, rep: TheoryObject, object_bound: int,
                          term_bound: int) -> DiagramOnTruncation:
    """Hom(rep, -) restricted to the truncation.  Elements are the term
    tuples of the enumerated morphisms; arrow images outside the
    enumerated fragment are left undefined."""
    values = {}
    for obj in objects_up_to(doctrine, object_bound):
        values[obj] = tuple(m.terms for m in hom_enumerate(rep, obj, doctrine, term_bound))
    arrows = {}
    for w in generating_morphisms(doctrine, object_bound):
        table = {}
        allowed = set(values[w.target])
        for x in values[w.source]:
            composite = compose(doctrine, w, TheoryMorphism(rep, w.source, x))
            if composite.terms in allowed:
                table[x] = composite.terms
        arrows[w] = table
    return DiagramOnTruncation(doctrine, object_bound, term_bound, values, arrows)


def coproduct_diagram(doctrine: Doctrine, summands, object_bound: int,
                      term_bound: int) -> DiagramOnTruncation:
    """Disjoint union of diagrams: elements are (index, element) pairs."""
    summands = list(summands)
    values = {}
    for obj in objects_up_to(doctrine, object_bound):
        vals = []
        for i, X in enumerate(summands):
            vals.extend((i, x) for x in X.value(obj))
        values[obj] = tuple(vals)
    arrows = {}
    keys = set()
    for X in summands:
        keys.update(X.arrows)
    for m in keys:
        table = {}
        for i, X in enumerate(summands):
            for x, y in X.arrows.get(m, {}).items():
                table[(i, x)] = (i, y)
        arrows[m] = table
    return DiagramOnTruncation(doctrine, object_bound, term_bound, values, arrows)


# -- natural transformations --------------------------------------------


def natural_transformations(X: DiagramOnTruncation, Y):
    """All families eta_obj: X(obj) -> Y(obj) natural for every defined
    arrow entry of X, in lexicographic order of the unknowns eta_obj(x).
    Y must expose value(obj) and morphism_map(m) (total on its values).
    Each arrow entry x -> y of X(m) is the constraint
    eta(y) = Y(m)(eta(x)) for `search.solve`."""
    unknowns = [(obj, x) for obj in X.objects() for x in X.value(obj)]
    index = {u: i for i, u in enumerate(unknowns)}
    constraints = []
    for m, table in X.arrows.items():
        if not table:
            continue
        image = Y.morphism_map(m).__getitem__
        for x, ximg in table.items():
            constraints.append((image, (index[(m.source, x)],), index[(m.target, ximg)]))
    domains = [Y.value(obj) for obj, _ in unknowns]
    return [dict(zip(unknowns, values)) for values in solve(domains, constraints)]


# -- serialization -------------------------------------------------------


def element_key(e) -> str:
    if isinstance(e, str):
        return e
    if isinstance(e, tuple):
        inner = []
        for part in e:
            if hasattr(part, "op") or hasattr(part, "sort"):
                inner.append(print_term(part))
            else:
                inner.append(element_key(part))
        return "(" + ",".join(inner) + ")"
    return str(e)


def diagram_to_json(X: DiagramOnTruncation) -> dict:
    values = []
    for obj in X.objects():
        values.append({
            "object": [s.name for s in obj.sorts],
            "elements": [element_key(e) for e in X.value(obj)],
        })
    arrows = []
    for m in sorted(X.arrows, key=str):
        arrows.append({
            "source": [s.name for s in m.source.sorts],
            "target": [s.name for s in m.target.sorts],
            "terms": [print_term(t) for t in m.terms],
            "map": {element_key(x): element_key(y) for x, y in sorted(
                X.arrows[m].items(), key=lambda p: element_key(p[0]))},
        })
    return {
        "object_bound": X.object_bound,
        "term_bound": X.term_bound,
        "values": values,
        "arrows": arrows,
    }
