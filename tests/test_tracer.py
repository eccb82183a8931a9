"""Smoke test for the benchmark's outside-in tracer: it wraps msat
functions and engine methods by name, so a rename in msat must fail here
and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import msat
import msat.engines as engines
import msat.theory_cat as theory_cat
from msat.builtins import builtin_doctrine
from msat.theory_cat import TheoryObject, hom_enumerate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = _load_tracer()
    originals = {name: getattr(engines, name).normalize for name in tracer_mod.ENGINE_CLASSES}
    compose = theory_cat.compose
    tracer = tracer_mod.Tracer([str(Path(msat.__file__).parent)])
    tracer_mod.install(tracer)
    try:
        group = builtin_doctrine("group")
        G = TheoryObject.of(group.sort("G"))
        homs = hom_enumerate(G, G, group, 1)
        theory_cat.compose(group, homs[1], homs[2])
        group.engine.normalize(homs[1].terms[0])
        metrics = tracer_mod.per_layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert metrics["theory_cat.compose.calls"][0] == 1
    assert metrics["engines.normalize.calls"][0] == 1
    assert theory_cat.compose is compose
    for name, normalize in originals.items():
        assert getattr(engines, name).normalize is normalize
