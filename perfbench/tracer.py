"""Outside-in tracing of msat's layers.

The tracer wraps public functions and engine methods of the `msat.*`
modules from the outside; the program itself is not changed.  Package
modules bind functions with `from .x import f`, so a wrapper replaces the
original in every loaded msat module (and benchmark workload module) that
holds the same function object.  Methods are
wrapped on their classes.

Records are aggregated per function, never one span per call: c01-shaped
work makes millions of boundary calls.  Each job gets one span holding the
per-function deltas of its calls and times.

* A timed record keeps `calls`, `total_s` and `self_s`; self time is the
  record's time minus the time of traced calls nested inside it.
* Recursive functions are wrapped with a depth guard: every call is
  counted, only the outermost one is timed.
* Counted records (term construction and equality) only count calls, so
  the hottest boundaries stay cheap.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter


class Record:
    __slots__ = ("calls", "total_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = 0.0

    def snapshot(self):
        return (self.calls, self.total_s, self.self_s, self.extra)


class Tracer:
    def __init__(self, roots):
        # wrappers replace originals in the modules loaded from these
        # directories: msat itself and the benchmark's workload modules
        self.roots = tuple(os.path.join(r, "") for r in roots)
        self.records: dict[str, Record] = {}
        # child-time accumulators of the open timed calls; the bottom slot
        # collects the time of top-level layer calls made by a job
        self.stack = [0.0]
        self.spans: list[dict] = []
        self._undo: list = []
        self._job = None

    def record(self, name: str) -> Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record()
        return rec

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, recursive=False, extra=None):
        """Time `fn` under `name`.  `extra(result, args)` adds to the
        record's work quantity after each outermost call."""
        rec = self.record(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if recursive and rec.depth:
                rec.calls += 1
                return fn(*args, **kwargs)
            rec.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                rec.depth -= 1
                rec.calls += 1
                rec.total_s += dt
                rec.self_s += dt - child
            if extra is not None:
                rec.extra += extra(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        rec = self.record(name)

        def wrapper(*args):
            rec.calls += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def wrap_function(self, module, attr, name, **kw):
        original = getattr(module, attr)
        wrapper = self.timed(name, original, **kw)
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__file__", None) or "").startswith(self.roots):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def wrap_method(self, cls, attr, name, counted=False, **kw):
        original = cls.__dict__[attr]
        if counted:
            wrapper = self.counted(name, original)
        else:
            wrapper = self.timed(name, original, **kw)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- per-job spans -----------------------------------------------------

    def begin_job(self, job_id):
        self._job = (job_id, {n: r.snapshot() for n, r in self.records.items()})
        self.stack[:] = [0.0]

    def end_job(self, wall_s):
        job_id, before = self._job
        layers = {}
        for name, rec in self.records.items():
            now = rec.snapshot()
            old = before.get(name, (0, 0.0, 0.0, 0.0))
            if now[0] != old[0]:
                layers[name] = {
                    "calls": now[0] - old[0],
                    "total_s": now[1] - old[1],
                    "self_s": now[2] - old[2],
                    "extra": now[3] - old[3],
                }
        self.spans.append({
            "job": job_id,
            "wall_s": wall_s,
            "body_self_s": wall_s - self.stack[0],
            "layers": layers,
        })


def _families(args):
    """Size of the search space enumerate_homs walks: prod |B_s|^|A_s|."""
    a, b = args[0], args[1]
    total = 1
    for s, dom in a.carriers.items():
        total *= len(b.carriers[s]) ** len(dom)
    return total


ENGINE_CLASSES = (
    "TrivialEngine",
    "WordEngine",
    "GroupActionEngine",
    "RingModuleEngine",
    "OperadEngine",
    "PathEngine",
)


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics name."""
    import msat.builtins as builtins
    import msat.catalog as catalog
    import msat.cli as cli
    import msat.diagram as diagram
    import msat.dsl as dsl
    import msat.engines as engines
    import msat.models as models
    import msat.presentations as presentations
    import msat.rigidify as rigidify
    import msat.signature as signature
    import msat.simplicial as simplicial
    import msat.theory_cat as theory_cat

    t = tracer
    t.wrap_method(signature.App, "__init__", "signature.app_new", counted=True)
    t.wrap_method(signature.App, "__eq__", "signature.term_eq", counted=True)
    t.wrap_method(signature.Var, "__eq__", "signature.term_eq", counted=True)
    t.wrap_function(signature, "substitute", "signature.substitute", recursive=True)
    t.wrap_function(signature, "enumerate_terms", "signature.enumerate_terms")
    t.wrap_function(signature, "enumerate_raw_terms", "signature.enumerate_raw_terms")

    for cls_name in ENGINE_CLASSES:
        cls = getattr(engines, cls_name)
        t.wrap_method(cls, "normalize", f"engines.{cls_name}.normalize")
        if "compose_tuple" in cls.__dict__:
            t.wrap_method(cls, "compose_tuple", "engines.compose_tuple")
    t.wrap_method(
        engines.BoundedGenericEngine, "equal", "engines.generic_equal",
        extra=lambda r, a: 1.0 if r is signature.EqResult.EQUAL else 0.0,
    )

    t.wrap_function(theory_cat, "compose", "theory_cat.compose")
    t.wrap_method(theory_cat.TheoryMorphism, "__eq__", "theory_cat.morphism_eq")
    t.wrap_function(theory_cat, "hom_enumerate", "theory_cat.hom_enumerate")
    t.wrap_function(theory_cat, "generating_morphisms", "theory_cat.generating_morphisms")

    def closure_entries(result, args):
        closure, _ = result
        return float(sum(len(tab) for tab in closure.values()))

    t.wrap_method(diagram.DiagramOnTruncation, "arrow_closure", "diagram.arrow_closure",
                  extra=closure_entries)
    t.wrap_function(diagram, "natural_transformations", "diagram.natural_transformations",
                    extra=lambda r, a: float(len(r)))
    t.wrap_function(diagram, "representable_diagram", "diagram.representable_diagram")

    t.wrap_function(models, "evaluate", "models.evaluate", recursive=True)
    t.wrap_function(models, "check_equations", "models.check_equations")
    t.wrap_function(models, "check_monad_laws", "models.check_monad_laws")
    found = t.record("models.enumerate_homs.found")

    def homs_tried(result, args):
        found.extra += len(result)
        return float(_families(args))

    t.wrap_function(models, "enumerate_homs", "models.enumerate_homs", extra=homs_tried)
    t.wrap_function(models, "as_functor", "models.as_functor")
    t.wrap_function(models, "adjunction_check", "models.adjunction_check")

    t.wrap_function(presentations, "homs_into", "presentations.homs_into",
                    extra=lambda r, a: float(len(r)))

    t.wrap_function(rigidify, "surjectivity_step", "rigidify.surjectivity_step")
    t.wrap_function(rigidify, "injectivity_step", "rigidify.injectivity_step")
    t.wrap_function(
        rigidify, "localize", "rigidify.localize",
        extra=lambda r, a: float(sum(
            1 for e in r.trace if e["kind"] in ("surjectivity", "injectivity"))),
    )
    t.wrap_function(rigidify, "rigidify_presentation", "rigidify.rigidify_presentation")
    t.wrap_function(rigidify, "verify_universal_property", "rigidify.verify_universal_property")
    t.wrap_function(rigidify, "verify_ktk", "rigidify.verify_ktk")

    def snf_entries(result, args):
        mat = args[0]
        return float(len(mat) * (len(mat[0]) if mat else 0))

    t.wrap_function(simplicial, "smith_normal_form", "simplicial.smith_normal_form",
                    extra=snf_entries)
    t.wrap_function(simplicial, "homotopy_probe", "simplicial.homotopy_probe")

    for attr in ("parse_theory", "parse_model", "parse_term_text", "parse_context_text",
                 "parse_object_text", "parse_morphism_text", "diagram_from_data",
                 "simplicial_from_data"):
        t.wrap_function(dsl, attr, "dsl.parse")
    t.wrap_function(cli, "emit_report", "cli.emit_report")
    t.wrap_function(cli, "run", "cli.run")
    t.wrap_function(catalog, "models_for", "catalog.models_for")
    t.wrap_function(builtins, "builtin_doctrine", "builtins.builtin_doctrine")


def _get(records, name):
    rec = records.get(name)
    return rec if rec is not None else Record()


def per_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, named `<module>.<function>.<quantity>`."""
    r = tracer.records
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls(metric, rec_name):
        put(f"{metric}.calls", float(_get(r, rec_name).calls), "count")

    def self_s(metric, rec_name):
        put(f"{metric}.self_s", _get(r, rec_name).self_s, "s")

    def total_s(metric, rec_name):
        put(f"{metric}.total_s", _get(r, rec_name).total_s, "s")

    calls("signature.app_new", "signature.app_new")
    calls("signature.term_eq", "signature.term_eq")
    calls("signature.substitute", "signature.substitute")
    self_s("signature.substitute", "signature.substitute")
    self_s("signature.enumerate_terms", "signature.enumerate_terms")
    self_s("signature.enumerate_raw_terms", "signature.enumerate_raw_terms")

    norm_recs = [_get(r, f"engines.{c}.normalize") for c in ENGINE_CLASSES]
    put("engines.normalize.calls", float(sum(x.calls for x in norm_recs)), "count")
    put("engines.normalize.self_s", sum(x.self_s for x in norm_recs), "s")
    for cls_name in ENGINE_CLASSES[1:]:
        self_s(f"engines.{cls_name}.normalize", f"engines.{cls_name}.normalize")
    calls("engines.compose_tuple", "engines.compose_tuple")
    self_s("engines.compose_tuple", "engines.compose_tuple")
    geq = _get(r, "engines.generic_equal")
    calls("engines.generic_equal", "engines.generic_equal")
    self_s("engines.generic_equal", "engines.generic_equal")
    put("engines.generic_equal.equal_ratio", geq.extra / geq.calls if geq.calls else 0.0, "ratio")

    comp = _get(r, "theory_cat.compose")
    calls("theory_cat.compose", "theory_cat.compose")
    self_s("theory_cat.compose", "theory_cat.compose")
    put("theory_cat.compose.us_per_call",
        comp.total_s / comp.calls * 1e6 if comp.calls else 0.0, "us")
    calls("theory_cat.morphism_eq", "theory_cat.morphism_eq")
    self_s("theory_cat.morphism_eq", "theory_cat.morphism_eq")
    self_s("theory_cat.hom_enumerate", "theory_cat.hom_enumerate")
    self_s("theory_cat.generating_morphisms", "theory_cat.generating_morphisms")

    calls("diagram.arrow_closure", "diagram.arrow_closure")
    self_s("diagram.arrow_closure", "diagram.arrow_closure")
    put("diagram.arrow_closure.entries", _get(r, "diagram.arrow_closure").extra, "count")
    calls("diagram.natural_transformations", "diagram.natural_transformations")
    self_s("diagram.natural_transformations", "diagram.natural_transformations")
    put("diagram.natural_transformations.solutions",
        _get(r, "diagram.natural_transformations").extra, "count")
    self_s("diagram.representable_diagram", "diagram.representable_diagram")

    calls("models.evaluate", "models.evaluate")
    self_s("models.evaluate", "models.evaluate")
    self_s("models.check_equations", "models.check_equations")
    total_s("models.check_monad_laws", "models.check_monad_laws")
    homs = _get(r, "models.enumerate_homs")
    total_s("models.enumerate_homs", "models.enumerate_homs")
    put("models.enumerate_homs.hit_ratio",
        _get(r, "models.enumerate_homs.found").extra / homs.extra if homs.extra else 0.0,
        "ratio")
    self_s("models.as_functor", "models.as_functor")

    calls("presentations.homs_into", "presentations.homs_into")
    self_s("presentations.homs_into", "presentations.homs_into")
    put("presentations.homs_into.solutions", _get(r, "presentations.homs_into").extra, "count")

    self_s("rigidify.surjectivity_step", "rigidify.surjectivity_step")
    self_s("rigidify.injectivity_step", "rigidify.injectivity_step")
    put("rigidify.localize.steps", _get(r, "rigidify.localize").extra, "count")
    self_s("rigidify.rigidify_presentation", "rigidify.rigidify_presentation")
    total_s("rigidify.verify_universal_property", "rigidify.verify_universal_property")
    total_s("rigidify.verify_ktk", "rigidify.verify_ktk")

    calls("simplicial.smith_normal_form", "simplicial.smith_normal_form")
    self_s("simplicial.smith_normal_form", "simplicial.smith_normal_form")
    put("simplicial.smith_normal_form.matrix_entries",
        _get(r, "simplicial.smith_normal_form").extra, "count")
    total_s("simplicial.homotopy_probe", "simplicial.homotopy_probe")

    self_s("dsl.parse", "dsl.parse")
    self_s("cli.emit_report", "cli.emit_report")
    total_s("cli.run", "cli.run")
    total_s("catalog.models_for", "catalog.models_for")
    self_s("builtins.builtin_doctrine", "builtins.builtin_doctrine")
    return out
