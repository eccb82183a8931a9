"""Strictification of set-valued diagrams on a theory truncation.

Two independent routes are implemented and cross-checked:

* the step route: objectwise pushouts that first make mapping in along
  the projection-induced map surjective, then injective (via the fold
  map), iterated under a budget with a fixed-point detector.  Each step
  is a `diagram.quotient` under one union-find: the surjectivity step
  of the `coproduct_diagram` of X and copies of a representable, the
  injectivity step of X itself.  A step runs at the diagram's own term
  bound, where hom enumeration is complete (`Doctrine.sorts_only`), and
  raises `HomEnumerationIncomplete` elsewhere;
* the presentation route: a generators-and-relations algebra read off
  the diagram, whose maps into any finite model are compared with the
  diagram's natural transformations (the adjunction bijection).

With no operations every arrow into a size-one object is a projection,
so no step changes a size-one value: the localization of X is the
product functor T -> X(T_1) x ... x X(T_n), and its unit, read through
the result's comparison map, is the comparison map of X.

A known limit: the steps glue along the projection maps of objects of
size 2 and more, and nothing glues along the nullary projection into
the terminal object.  Two elements of X at the terminal object merge
only when an injectivity step happens to merge them; when none does
(say X is two points at the terminal object and one everywhere else),
`localize` ends in `BudgetExhausted`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .catalog import models_for
from .diagram import (
    DiagramOnTruncation,
    coproduct_diagram,
    element_key,
    is_bijection,
    is_product_bijection,
    natural_transformations,
    quotient,
    representable_diagram,
)
from .errors import BudgetExhausted, HomEnumerationIncomplete, InvalidParameter, NotFunctorial
from .models import AlgebraFunctor, check_product_preservation
from .presentations import AlgebraPresentation, homs_into
from .search import UnionFind
from .signature import Doctrine, Sort, Var, substitute
from .theory_cat import (
    TheoryMorphism,
    TheoryObject,
    compose,
    hom_enumerate,
    identity,
    objects_up_to,
    projection,
)


@dataclass(frozen=True)
class ProjectionMap:
    """The coproduct of the projection-induced inclusions of the size-one
    representables into the representable of a product object."""

    target: TheoryObject
    projections: tuple[TheoryMorphism, ...]

    @property
    def arity(self) -> int:
        return self.target.size

    def factors(self) -> list[TheoryObject]:
        return [TheoryObject.of(s) for s in self.target.sorts]

    @classmethod
    def of(cls, target: TheoryObject) -> "ProjectionMap":
        """The projection map of `target`, through its canonical
        projections target -> T_i in slot order."""
        return cls(target, tuple(projection(target, [i]) for i in range(1, target.size + 1)))


def projection_map_set(doctrine: Doctrine, bound: int) -> list[ProjectionMap]:
    """One projection map per object of size 2..bound."""
    if bound < 2:
        raise InvalidParameter("projection map set needs bound >= 2")
    return [ProjectionMap.of(obj) for obj in objects_up_to(doctrine, bound) if obj.size >= 2]


# Mapping in along every projection map is bijective exactly when, at
# set level, every canonical map X(T) -> prod X(T_i) is, plus the
# terminal condition: strict locality is product preservation.
check_strictly_local = check_product_preservation


# -- the two pushout steps ------------------------------------------------


@dataclass
class StepResult:
    diagram: DiagramOnTruncation
    unit: dict  # object -> {old element -> new element}
    kind: str
    target: str

    @property
    def sizes(self) -> dict:
        return {obj.key(): len(self.diagram.value(obj)) for obj in self.diagram.objects()}


def _step_closure(X: DiagramOnTruncation):
    """The arrow closure of X for a pushout step.  Raises
    `HomEnumerationIncomplete` unless X's doctrine is `sorts_only`, the
    one kind whose bounded hom enumeration is known complete, and
    `NotFunctorial` on X's first functoriality conflict."""
    if not X.doctrine.sorts_only:
        raise HomEnumerationIncomplete(
            f"localization steps on {X.doctrine.name} need complete hom enumeration, "
            f"which only a doctrine with no operations and no equations has"
        )
    closure, conflicts = X.arrow_closure()
    if conflicts:
        raise NotFunctorial(conflicts[0])
    return closure


def surjectivity_step(X: DiagramOnTruncation, p: ProjectionMap) -> StepResult:
    """Pushout gluing one copy of the representable R = Hom(p.target, -),
    the doctrine's memoized `representable_diagram`, onto X for every
    tuple z in the product of the size-one values, making the
    restriction along the projection map surjective: the quotient of the
    coproduct of X (summand 0) and the copies (summand zi + 1 for the
    zi-th tuple).  Copy z is attached along each f: T_i -> obj by
    identifying f after the i-th projection (a variable map, so an
    element of R) with f's action on z[i]."""
    doctrine = X.doctrine
    closure = _step_closure(X)
    R = representable_diagram(doctrine, p.target, X.object_bound, X.term_bound)
    factors = p.factors()
    tuples = sorted(
        itertools.product(*(X.value(o) for o in factors)), key=element_key
    )
    # (slot, obj, b, f, f's derived action or None) per attaching morphism
    attaching = []
    for i, factor in enumerate(factors):
        for obj in X.objects():
            for f in hom_enumerate(factor, obj, doctrine, X.term_bound):
                b = compose(doctrine, f, p.projections[i])
                attaching.append((i, obj, b, f, closure.get(f)))
    uf = UnionFind()
    for zi, z in enumerate(tuples):
        for i, obj, b, f, table in attaching:
            if table is None or z[i] not in table:
                raise HomEnumerationIncomplete(f"no derived action for {f}")
            uf.union((obj, (zi + 1, b)), (obj, (0, table[z[i]])))
    glued = coproduct_diagram(doctrine, [X] + [R] * len(tuples), X.object_bound, X.term_bound)
    out, classes = quotient(glued, uf)
    unit = {obj: {x: classes[(obj, (0, x))] for x in X.value(obj)} for obj in X.objects()}
    return StepResult(out, unit, "surjectivity", p.target.key())


def injectivity_step(X: DiagramOnTruncation, p: ProjectionMap) -> StepResult:
    """Pushout along the fold map: every pair of elements of X(T) with
    equal projections has its entire representable image identified, a
    quotient of X."""
    closure = _step_closure(X)
    images = X.comparison(p.target) or {}
    pairs = [
        (u, v) for u, v in itertools.combinations(X.value(p.target), 2)
        if u in images and v in images and images[u] == images[v]
    ]
    uf = UnionFind()
    from_target = [
        (m, table) for m, table in closure.items() if m.source == p.target
    ]
    for u, v in pairs:
        for m, table in from_target:
            if u in table and v in table:
                uf.union((m.target, table[u]), (m.target, table[v]))
    out, classes = quotient(X, uf)
    unit = {obj: {x: classes[(obj, x)] for x in X.value(obj)} for obj in X.objects()}
    return StepResult(out, unit, "injectivity", p.target.key())


# -- budgeted localization -------------------------------------------------


@dataclass
class LocalizeResult:
    diagram: DiagramOnTruncation
    trace: list
    unit: dict  # object -> {original element -> final element}


def _compose_units(first: dict, second: dict) -> dict:
    return {
        obj: {x: second[obj][y] for x, y in table.items()}
        for obj, table in first.items()
    }


def _signature(X: DiagramOnTruncation):
    vals = tuple((obj.key(), len(X.value(obj))) for obj in X.objects())
    arrs = tuple(
        (str(m), tuple(sorted(X.arrows[m].items()))) for m in sorted(X.arrows, key=str)
    )
    return (vals, arrs)


def localize(X: DiagramOnTruncation, budget: int) -> LocalizeResult:
    """Alternate surjectivity and injectivity steps over all projection
    maps, at X's term bound, until strict locality holds or the budget
    is exhausted.  The trace records per-step cardinalities; a sweep
    that changes nothing while locality still fails raises
    BudgetExhausted early."""
    trace: list = []
    unit = {obj: {x: x for x in X.value(obj)} for obj in X.objects()}
    current = X
    ok, _ = check_strictly_local(current)
    if ok:
        trace.append({"step": 0, "kind": "none", "note": "already strictly local"})
        return LocalizeResult(current, trace, unit)
    steps = 0
    pmaps = projection_map_set(X.doctrine, X.object_bound)
    while True:
        before = _signature(current)
        for p in pmaps:
            for step_fn in (surjectivity_step, injectivity_step):
                if steps >= budget:
                    raise BudgetExhausted(
                        f"no strictly local diagram within {budget} steps", trace
                    )
                res = step_fn(current, p)
                steps += 1
                unit = _compose_units(unit, res.unit)
                trace.append({
                    "step": steps,
                    "kind": res.kind,
                    "target": res.target,
                    "sizes": res.sizes,
                    # every step that returns is exact
                    "approximate": False,
                })
                current = res.diagram
                ok, _ = check_strictly_local(current)
                if ok:
                    trace.append({"step": steps, "kind": "verdict", "note": "strictly local"})
                    return LocalizeResult(current, trace, unit)
        if _signature(current) == before:
            raise BudgetExhausted("fixed point reached without strict locality", trace)


# -- the presentation route -------------------------------------------------


def _generator_table(X: DiagramOnTruncation):
    """(size-one object, element) -> its generator.  Object bound 0,
    with no size-one object, is refused."""
    if X.object_bound < 1:
        raise InvalidParameter(f"rigidify needs object bound >= 1, got {X.object_bound}")
    table = {}
    for sort in sorted(X.doctrine.sorts, key=lambda s: s.name):
        obj = TheoryObject.of(sort)
        for idx, x in enumerate(X.value(obj)):
            table[(obj, x)] = Var(f"gen_{sort.name}_{idx}", sort)
    return table


def rigidify_presentation(X: DiagramOnTruncation) -> AlgebraPresentation:
    """Generators: the size-one values of X.  Relations: one per defined
    entry of a generating arrow into a size-one object, equating the
    arrow's term (on the projected generators) with the image's
    generator.  Object bound 0, with no size-one object, is refused
    (`_generator_table`)."""
    gens = _generator_table(X)
    generators: dict[Sort, list] = {}
    for (obj, x), var in gens.items():
        generators.setdefault(var.sort, []).append(var.name)
    relations = []
    seen = set()
    for w, table in X.arrows.items():
        if w.target.size != 1:
            continue
        src, term = w.source, w.terms[0]  # `terms` renders on each read
        images = X.comparison(src) or {}
        factors = [TheoryObject.of(s) for s in src.sorts]
        for z, img in table.items():
            if z not in images:
                continue
            asg = {
                name: gens[(factor, y)]
                for name, factor, y in zip(src.names, factors, images[z])
            }
            lhs = substitute(term, asg)
            rhs = gens[(w.target, img)]
            if lhs == rhs:
                continue
            key = (lhs, rhs)
            if key not in seen:
                seen.add(key)
                relations.append(key)
    generators_t = {s: tuple(v) for s, v in generators.items()}
    return AlgebraPresentation(X.doctrine, generators_t, tuple(relations), name="strictified")


def _generator_names(X: DiagramOnTruncation, gens):
    """(obj, x) -> the names of the generators at the projections of x,
    read off `X.comparison`; None when a projection table is missing or
    partial, so that no generator assignment transposes."""
    names = {}
    for obj in X.objects():
        images = X.comparison(obj) or {}
        if any(x not in images for x in X.value(obj)):
            return None
        factors = [TheoryObject.of(s) for s in obj.sorts]
        for x, ys in images.items():
            names[(obj, x)] = tuple(gens[(f, y)].name for f, y in zip(factors, ys))
    return names


def verify_universal_property(X: DiagramOnTruncation, P: AlgebraPresentation,
                              model_bound: int = 3, models=None):
    """For every catalog model A: generator assignments P -> A must
    biject with natural transformations X -> H_A under the canonical
    transpose.  Returns (ok, per-model report).  A model over another
    doctrine than P's raises `DoctrineMismatch` (`homs_into`)."""
    if models is None:
        models = models_for(X.doctrine, model_bound)
    names = _generator_names(X, _generator_table(X))
    report = []
    ok = True
    for A in models:
        homs = homs_into(P, A)  # first: it checks A's doctrine
        nats = natural_transformations(X, AlgebraFunctor(A, X.object_bound))
        transposed = [] if names is None else [
            frozenset((key, tuple(h[n] for n in ns)) for key, ns in names.items())
            for h in homs
        ]
        model_ok = len(transposed) == len(homs) == len(nats) and is_bijection(
            transposed, [frozenset(n.items()) for n in nats]
        )
        ok = ok and model_ok
        report.append({
            "model": A.name,
            "homs": len(homs),
            "nats": len(nats),
            "bijection": model_ok,
        })
    return ok, report


def verify_ktk(doctrine: Doctrine, p: ProjectionMap, model_bound: int = 3,
               object_bound: int = 2, term_bound: int = 2, models=None):
    """Strictifying both sides of a projection map must give the same
    finite-model hom sets: maps out of either presented algebra into A
    biject with the product of A's carriers at the factor sorts.  A term
    bound that leaves a projection out of the representable raises
    `HomEnumerationIncomplete` naming it, and an object bound below 1,
    which leaves out the size-one objects that hold the generators,
    raises `InvalidParameter`; a model over another doctrine raises
    `DoctrineMismatch` (`homs_into`)."""
    if object_bound < 1:
        raise InvalidParameter(f"verify_ktk needs object bound >= 1, got {object_bound}")
    if models is None:
        models = models_for(doctrine, model_bound)
    rep_big = representable_diagram(doctrine, p.target, object_bound, term_bound)
    summands = [
        representable_diagram(doctrine, f, object_bound, term_bound)
        for f in p.factors()
    ]
    rep_sum = coproduct_diagram(doctrine, summands, object_bound, term_bound)
    gens_big = _generator_table(rep_big)
    gens_sum = _generator_table(rep_sum)
    # the generators at the projections of the product object, and at
    # the identity of each summand
    factors = p.factors()
    for f, q in zip(factors, p.projections):
        # the identity of a factor is a lone variable of its sort, the
        # same size as its projection, so it is in the summand exactly
        # when the projection is in the product's representable
        if (f, q) not in gens_big:
            raise HomEnumerationIncomplete(
                f"projection {q} is not in the representable of {p.target} "
                f"at term bound {term_bound}"
            )
    big_names = [gens_big[(f, q)].name for f, q in zip(factors, p.projections)]
    sum_names = [gens_sum[(f, (i, identity(f)))].name for i, f in enumerate(factors)]
    P_big = rigidify_presentation(rep_big)
    P_sum = rigidify_presentation(rep_sum)
    report = []
    ok = True
    for A in models:
        big_keys = [tuple(h[n] for n in big_names) for h in homs_into(P_big, A)]
        sum_keys = [tuple(h[n] for n in sum_names) for h in homs_into(P_sum, A)]
        factors = [A.carriers[s] for s in p.target.sorts]
        big_ok = is_product_bijection(big_keys, factors)
        sum_ok = is_product_bijection(sum_keys, factors)
        ok = ok and big_ok and sum_ok
        report.append({
            "model": A.name,
            "product": math.prod(map(len, factors)),
            "via_product_object": len(big_keys),
            "via_coproduct": len(sum_keys),
            "bijections": big_ok and sum_ok,
        })
    return ok, report


def restrict_nat(nat: dict, unit: dict) -> dict:
    """Pull a natural transformation back along a step's unit map."""
    out = {}
    for obj, table in unit.items():
        for x, y in table.items():
            out[(obj, x)] = nat[(obj, y)]
    return out
