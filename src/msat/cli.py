"""Command-line front end: parse theory/model/diagram files, dispatch to
the engine, and emit deterministic JSON or one-line text reports.

Exit codes: 0 verdict pass, 1 verdict fail (counterexample in the
report), 2 usage, parse, I/O or any other error (reported with its
type; an unwritable --out is one line on stderr), 3 budget exhausted /
unknown / no catalog model within the model bound.
The MSAT_SEED environment variable fixes all fuzzing seeds.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import traceback

from . import __version__
from .builtins import resolve_builtin
from .dsl import (
    diagram_from_data,
    parse_context_text,
    parse_model,
    parse_morphism_text,
    parse_object_text,
    parse_term_text,
    parse_theory,
    print_theory,
    simplicial_from_data,
)
from .errors import BudgetExhausted, MsatError, ParseError
from .models import (
    as_functor,
    check_equations,
    check_monad_laws,
    check_product_preservation,
    enumerate_homs,
    free_algebra,
    adjunction_check,
)
from .rigidify import (
    ProjectionMap,
    check_strictly_local,
    localize,
    rigidify_presentation,
    verify_ktk,
    verify_universal_property,
)
from .signature import EqResult, normalize, print_term, terms_equal
from .simplicial import check_strict, degreewise_free, homotopy_probe, standard
from .theory_cat import compose, hom_enumerate, morphism_to_json

# every public engine operation is reachable through exactly one verb
VERB_OPERATIONS = {
    "check-theory": ["cli.parse_theory", "signature.typecheck", "signature.builtin_doctrine"],
    "normalize": ["signature.normalize", "signature.substitute", "signature.terms_equal"],
    "hom": ["signature.enumerate_terms", "theory_cat.hom_enumerate"],
    "compose": [
        "theory_cat.compose",
        "theory_cat.identity",
        "theory_cat.projection",
        "theory_cat.product",
        "theory_cat.tuple_",
    ],
    "check-model": ["models.check_equations", "models.evaluate", "models.enumerate_homs"],
    "monad-laws": ["models.check_monad_laws"],
    "free": ["models.free_algebra", "simplicial.degreewise_free"],
    "adjunction": ["models.adjunction_check"],
    "strict-check": [
        "models.as_functor",
        "models.check_product_preservation",
        "simplicial.check_strict",
        "rigidify.check_strictly_local",
    ],
    "homotopy-probe": ["simplicial.homotopy_probe", "simplicial.standard"],
    "rigidify": ["rigidify.rigidify_presentation"],
    "localize": [
        "rigidify.localize",
        "rigidify.surjectivity_step",
        "rigidify.injectivity_step",
        "rigidify.projection_map_set",
    ],
    "verify-up": ["rigidify.verify_universal_property"],
    "verify-ktk": ["rigidify.verify_ktk"],
}

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path: str, key: str, inputs: dict) -> str:
    """The text of an input file; records its SHA-256 under `key`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    inputs[key] = _sha256(raw)
    return raw.decode("utf-8")


def _load_theory(spec: str, inputs: dict):
    if spec.startswith("builtin:"):
        inputs["theory"] = _sha256(spec.encode())
        return resolve_builtin(spec)
    return parse_theory(_read_input(spec, "theory", inputs))


def _load_model(path: str, doctrine, inputs: dict):
    return parse_model(_read_input(path, "model", inputs), doctrine)


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a key it repeats is a `ParseError`, not
    an entry silently replaced by the last one."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _load_json(path: str, inputs: dict):
    text = _read_input(path, "diagram", inputs)
    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno) from None


def _load_diagram(path: str, doctrine, inputs: dict):
    return diagram_from_data(_load_json(path, inputs), doctrine)


def _load_sdiagram(path: str, doctrine, inputs: dict):
    return simplicial_from_data(_load_json(path, inputs), doctrine)


def emit_report(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
    verdict = report.get("verdict", "?")
    keys = ", ".join(
        f"{k}={v}" for k, v in sorted(report.get("data", {}).items())
        if isinstance(v, (int, str, bool))
    )
    line = f"{report.get('verb', '?')}: {verdict}" + (f" ({keys})" if keys else "")
    return (line + "\n").encode("utf-8")


def _bound(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"bound must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every `run` shares; parsing leaves no state on it."""
    ap = argparse.ArgumentParser(
        prog="msat",
        description="Workbench for multi-sorted equational theories.",
        epilog="MSAT_SEED fixes fuzzing seeds; bounds are echoed into every report.",
    )
    ap.add_argument("--version", action="version", version=f"msat {__version__}")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, *, model=False, diagram=False, sdiagram=False):
        p.add_argument("--theory", required=True,
                       help="theory file path or builtin:<name>[:arg]")
        if model:
            p.add_argument("--model", required=True)
        if diagram:
            p.add_argument("--diagram", required=True)
        if sdiagram:
            p.add_argument("--diagram", required=True, help="simplicial diagram JSON")
        p.add_argument("--size", type=_bound, default=2, help="term size bound")
        p.add_argument("--object-bound", type=_bound, default=2)
        p.add_argument("--dim-cap", type=_bound, default=3)
        p.add_argument("--model-bound", type=_bound, default=3)
        p.add_argument("--budget", type=_bound, default=8,
                       help="rounds of the generic engine's equality check, localization "
                            "steps, and the depth of the structure-map laws (capped at 3; "
                            "below 2 the verdict is unknown)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None)

    common(sub.add_parser("check-theory", help="parse and validate a theory"))
    p = sub.add_parser("normalize", help="normal form of a term")
    common(p)
    p.add_argument("--context", default="", help='bindings like "a:G, b:G"')
    p.add_argument("--term", required=True)
    p.add_argument("--equal-to", default=None)
    p = sub.add_parser("hom", help="enumerate a bounded hom set")
    common(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="tgt", required=True)
    p = sub.add_parser("compose", help="compose two morphisms")
    common(p)
    p.add_argument("--first", required=True, help='"src -> mid : t1;t2"')
    p.add_argument("--second", required=True, help='"mid -> tgt : t1"')
    p = sub.add_parser("check-model", help="check the defining equations")
    common(p, model=True)
    p.add_argument("--homs-against", default=None,
                   help="second model file; also count homomorphisms")
    common(sub.add_parser("monad-laws", help="structure-map laws"), model=True)
    p = sub.add_parser("free", help="free algebra or degreewise free diagram")
    common(p)
    p.add_argument("--sort", required=True)
    p.add_argument("--generators", default="x")
    p.add_argument("--y", default=None, help="delta:N / boundary:N / horn:N:K")
    p = sub.add_parser("adjunction", help="free/forgetful transpose bijection")
    common(p, model=True)
    p.add_argument("--sort", required=True)
    p.add_argument("--generators", default="y1")
    p = sub.add_parser("strict-check", help="product preservation / strict locality")
    p.add_argument("--model", default=None)
    p.add_argument("--simplicial", action="store_true",
                   help="treat --diagram as a simplicial diagram")
    common(p)
    p.add_argument("--diagram", default=None)
    p = sub.add_parser("homotopy-probe", help="refutation-only weak-equivalence probe")
    common(p, sdiagram=True)
    p = sub.add_parser("rigidify", help="presentation of the strictification")
    common(p, diagram=True)
    p = sub.add_parser("localize", help="iterated pushout strictification")
    common(p, diagram=True)
    p = sub.add_parser("verify-up", help="universal property against finite models")
    common(p, diagram=True)
    p = sub.add_parser("verify-ktk", help="strictified projection maps are bijective on model homs")
    common(p)
    p.add_argument("--object", required=True, help='product object, e.g. "G,G"')
    return ap


def run(argv) -> tuple[dict, int]:
    """Execute a command line; returns (report, exit code)."""
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as err:
        if not err.code:  # --help / --version already printed their output
            return {"_silent": True, "verdict": "pass"}, EXIT_PASS
        return {"verb": argv[0] if argv else "?", "verdict": "error",
                "error": "usage"}, EXIT_USAGE
    inputs: dict = {}
    report = {
        "schema": "msat-report/1",
        "tool": {"name": "msat", "version": __version__},
        "verb": ns.verb,
        "format": getattr(ns, "format", "json"),
        "out": getattr(ns, "out", None),
        "bounds": {
            "size": ns.size,
            "object_bound": ns.object_bound,
            "dim_cap": ns.dim_cap,
            "model_bound": ns.model_bound,
            "budget": ns.budget,
        },
        "inputs": inputs,
        "data": {},
        "counterexamples": [],
    }
    try:
        code = _dispatch(ns, report, inputs)
    except ParseError as err:
        report["verdict"] = "error"
        report["error"] = str(err)
        code = EXIT_USAGE
    except BudgetExhausted as err:
        report["verdict"] = "unknown"
        report["error"] = str(err)
        report["data"]["trace"] = err.trace
        code = EXIT_BUDGET
    except OSError as err:
        # an unreadable input: missing, a directory, no permission
        report["verdict"] = "error"
        report["error"] = str(err)
        code = EXIT_USAGE
    except Exception as err:
        # last resort: internal faults (RecursionError on deep terms, a
        # stray ValueError or KeyError) still end in a typed report
        if not isinstance(err, MsatError):
            traceback.print_exc()
        report["verdict"] = "error"
        report["error"] = f"{type(err).__name__}: {err}"
        code = EXIT_USAGE
    return report, code


def _parse_y(spec: str) -> tuple:
    """(kind, n, k) of a `--y` spec: delta:N, boundary:N or horn:N:K,
    with decimal N and K; anything else is a `ParseError`."""
    kind, *fields = spec.split(":")
    if len(fields) != {"delta": 1, "boundary": 1, "horn": 2}.get(kind) or not all(
        f.isascii() and f.isdigit() for f in fields
    ):
        raise ParseError(f"--y {spec!r}: expected delta:N, boundary:N or horn:N:K")
    numbers = [int(f) for f in fields]
    return kind, numbers[0], numbers[1] if kind == "horn" else None


def _verdict(report: dict, ok: bool) -> int:
    """Record a pass or fail verdict in `report`; returns its exit code."""
    report["verdict"] = "pass" if ok else "fail"
    return EXIT_PASS if ok else EXIT_FAIL


def _dispatch(ns, report, inputs) -> int:
    doctrine = _load_theory(ns.theory, inputs)
    data = report["data"]
    verb = ns.verb

    if verb == "check-theory":
        data["name"] = doctrine.name
        data["sorts"] = len(doctrine.sorts)
        data["ops"] = len(doctrine.ops)
        data["equations"] = len(doctrine.equations)
        text = print_theory(doctrine)
        data["round_trip"] = print_theory(parse_theory(text)) == text
        return _verdict(report, data["round_trip"])

    if verb == "normalize":
        ctx = parse_context_text(ns.context, doctrine)
        term = parse_term_text(ns.term, ctx, doctrine)
        data["input"] = print_term(term)
        if doctrine.exact:
            nf = normalize(term, doctrine)
            data["normal_form"] = print_term(nf)
            data["size"] = doctrine.engine.size(nf)
        else:
            data["normal_form"] = None  # generic engines decide equality only
        if ns.equal_to is None:
            return _verdict(report, True)
        other = parse_term_text(ns.equal_to, ctx, doctrine)
        verdict = terms_equal(term, other, doctrine, budget=ns.budget)
        data["equality"] = verdict.value
        if verdict is EqResult.UNKNOWN:
            report["verdict"] = "unknown"
            return EXIT_BUDGET
        return _verdict(report, verdict is EqResult.EQUAL)

    if verb == "hom":
        src = parse_object_text(ns.src, doctrine)
        tgt = parse_object_text(ns.tgt, doctrine)
        morphisms = hom_enumerate(src, tgt, doctrine, ns.size)
        data["count"] = len(morphisms)
        printed: dict = {}
        data["morphisms"] = [morphism_to_json(m, printed) for m in morphisms]
        return _verdict(report, True)

    if verb == "compose":
        f = parse_morphism_text(ns.first, doctrine)
        g = parse_morphism_text(ns.second, doctrine)
        h = compose(doctrine, g, f)
        data["composite"] = morphism_to_json(h)
        return _verdict(report, True)

    if verb == "check-model":
        alg = _load_model(ns.model, doctrine, inputs)
        bad = check_equations(alg)
        data["model"] = alg.name
        data["violations"] = len(bad)
        for eq, env in bad[:5]:
            report["counterexamples"].append({
                "equation": eq.name or str(eq),
                "assignment": {k: str(v) for k, v in sorted(env.items())},
            })
        if ns.homs_against:
            other = _load_model(ns.homs_against, doctrine, inputs)
            data["homs"] = len(enumerate_homs(alg, other))
        return _verdict(report, not bad)

    if verb == "monad-laws":
        alg = _load_model(ns.model, doctrine, inputs)
        depth = min(ns.budget, 3)
        data["model"] = alg.name
        if depth < 2:
            # outer terms of depth 1 are the slot variables, which no table
            # can fail: a pass would be vacuous
            report["verdict"] = "unknown"
            data["note"] = (f"structure-map laws need depth 2 or more; "
                            f"--budget {ns.budget} gives depth {depth}")
            return EXIT_BUDGET
        failures = check_monad_laws(alg, depth=depth)
        data["failures"] = len(failures)
        report["counterexamples"] = failures[:5]
        return _verdict(report, not failures)

    if verb == "free":
        sort = doctrine.sort(ns.sort)
        gens = [g.strip() for g in ns.generators.split(",") if g.strip()]
        if ns.y:
            Y = standard(*_parse_y(ns.y), cap=ns.dim_cap)
            free = degreewise_free(doctrine, sort, Y)
            data["levels"] = {
                str(lv): free.presentation(lv).to_json() for lv in range(Y.cap + 1)
            }
            problems = free.check_identities(ns.size)
            data["identity_violations"] = problems
            return _verdict(report, not problems)
        P = free_algebra(doctrine, {sort: gens})
        data["presentation"] = P.to_json()
        data["enumeration"] = [
            print_term(t) for t in P.enumerate(sort, ns.size)
        ]
        data["count"] = len(data["enumeration"])
        return _verdict(report, True)

    if verb == "adjunction":
        alg = _load_model(ns.model, doctrine, inputs)
        sort = doctrine.sort(ns.sort)
        gens = [g.strip() for g in ns.generators.split(",") if g.strip()]
        ok = adjunction_check(doctrine, sort, gens, alg)
        data["model"] = alg.name
        data["generators"] = len(gens)
        data["bijection"] = ok
        return _verdict(report, ok)

    if verb == "strict-check":
        if ns.model:
            alg = _load_model(ns.model, doctrine, inputs)
            X = as_functor(alg, ns.object_bound, ns.size)
            ok, failures = check_product_preservation(X)
            data["route"] = "model"
        elif ns.diagram and ns.simplicial:
            SD = _load_sdiagram(ns.diagram, doctrine, inputs)
            ok, failures = check_strict(SD)
            data["route"] = "simplicial"
        elif ns.diagram:
            X = _load_diagram(ns.diagram, doctrine, inputs)
            ok, failures = check_strictly_local(X)
            data["route"] = "diagram"
        else:
            raise ParseError("strict-check needs --model or --diagram")
        data["failures"] = failures
        return _verdict(report, ok)

    if verb == "homotopy-probe":
        SD = _load_sdiagram(ns.diagram, doctrine, inputs)
        res = homotopy_probe(SD)
        data["passed_necessary_checks"] = res.passed
        data["refuted_at"] = list(res.refuted_at) if res.refuted_at else None
        data["terminal_flag"] = res.terminal_flag
        return _verdict(report, res.passed)

    if verb == "rigidify":
        X = _load_diagram(ns.diagram, doctrine, inputs)
        P = rigidify_presentation(X)
        data["presentation"] = P.to_json()
        return _verdict(report, True)

    if verb == "localize":
        X = _load_diagram(ns.diagram, doctrine, inputs)
        res = localize(X, ns.budget)
        data["trace"] = res.trace
        data["sizes"] = {obj.key(): len(res.diagram.value(obj)) for obj in res.diagram.objects()}
        return _verdict(report, True)

    if verb in ("verify-up", "verify-ktk"):
        if verb == "verify-up":
            X = _load_diagram(ns.diagram, doctrine, inputs)
            P = rigidify_presentation(X)
            ok, per_model = verify_universal_property(X, P, ns.model_bound)
            data["presentation"] = P.to_json()
        else:
            obj = parse_object_text(ns.object, doctrine)
            ok, per_model = verify_ktk(doctrine, ProjectionMap.of(obj), ns.model_bound,
                                       object_bound=ns.object_bound, term_bound=ns.size)
        data["models"] = per_model
        if not per_model:
            # a check over no model passes vacuously; the bound is at fault
            report["verdict"] = "unknown"
            data["note"] = f"no catalog model within model bound {ns.model_bound}"
            return EXIT_BUDGET
        if not ok and verb == "verify-ktk":
            # the representables are truncated at the object bound, and
            # an arrow the product needs may start past it
            data["note"] = (f"fail at object bound {ns.object_bound}: a larger "
                            "--object-bound may change the verdict")
        return _verdict(report, ok)

    raise ParseError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    report, code = run(sys.argv[1:] if argv is None else argv)
    if report.get("_silent"):
        return code
    fmt = report.pop("format", "json") or "json"
    out_path = report.pop("out", None)
    payload = emit_report(report, fmt).decode("utf-8")
    if not out_path:
        sys.stdout.write(payload)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as err:
        sys.stderr.write(f"msat: cannot write the report to {out_path}: {err}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
