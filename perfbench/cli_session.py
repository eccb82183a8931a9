"""cli-session: in-process `msat.cli.run` plus `emit_report` jobs.

Every job is one command line at default bounds over generated theory,
model and diagram files, and builds its doctrine afresh, like separate
CLI invocations: nothing is shared between jobs.  Exact-doctrine reports
are checked byte for byte against recorded SHA-256 digests
(`golden.json`) and their verdicts against known answers.  Generic-engine
queries (`normalize --equal-to` on DSL-parsed theories) are checked for
soundness against a free monoid/group word oracle: never `pass` on a pair
the exact engine separates, never `fail`.

Known defect kept in the mix: in a DSL-parsed monoid or group,
`BoundedGenericEngine.equal(mul(mul(a,b),e), mul(a,b))` answers `unknown`
at every budget although it is an instance of the unit law (its union-find
compares roots with `is` while its parent keys compare with `==`).  Six
such queries (UNIT_COMPOUND in both theories) run in every round, so
`complete_rate` sits below 1 until the engine is fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import msat.cli as cli
from msat.builtins import builtin_doctrine
from msat.catalog import faulted_catalog, models_for
from msat.dsl import diagram_to_data, print_model, print_theory, simplicial_to_data
from msat.fuzz import make_rng, product_simplicial_diagram, random_trivial_diagram

from jobs import Job, group_hom_count, hom_count, small_ssets, term_text, word_value

MSET = """theory mset
sorts m, x
op mul : m m -> m
op e : -> m
op act : m x -> x
eq (a:m, b:m, c:m) mul(mul(a,b),c) = mul(a,mul(b,c))
eq (a:m) mul(e,a) = a
eq (a:m) mul(a,e) = a
eq (a:m, b:m, s:x) act(mul(a,b),s) = act(a,act(b,s))
eq (s:x) act(e,s) = s
end
"""
SEMIGROUP = """theory semigroup
sorts s
op mul : s s -> s
eq (x:s, y:s, z:s) mul(mul(x,y),z) = mul(x,mul(y,z))
end
"""

# word-problem queries (lhs, rhs); the classes are fixed by term shape
M = "mul"
UNIT_COMPOUND = [  # unit law with a compound operand: the seed defect
    ((M, (M, "a", "b"), "e"), (M, "a", "b")),
    ((M, "e", (M, "a", "b")), (M, "a", "b")),
    ((M, (M, "b", "a"), "e"), (M, "b", "a")),
]
EQUAL = [
    ((M, "e", "a"), "a"),
    ((M, (M, "a", "b"), "c"), (M, "a", (M, "b", "c"))),
]
GROUP_EQUAL = [
    ((M, "a", ("inv", "a")), "e"),
    (("inv", ("inv", "a")), "a"),
]
DISTINCT = [
    ((M, "a", "b"), (M, "b", "a")),
    ((M, "a", (M, "b", "a")), (M, "b", (M, "a", "a"))),
]
GROUP_DISTINCT = [
    ((M, "a", ("inv", "b")), "e"),
]
DIAGRAMS = 4
SSETS = 3


def _queries(kind):
    """(theory, context, lhs, rhs) for the monoid and group theories."""
    out = []
    for theory, sort, group in (("monoid", "m", False), ("group", "G", True)):
        ctx = ",".join(f"{v}:{sort}" for v in "abc")
        pool = {"unit": UNIT_COMPOUND,
                "equal": EQUAL + (GROUP_EQUAL if group else []),
                "distinct": DISTINCT + (GROUP_DISTINCT if group else [])}[kind]
        for lhs, rhs in pool:
            out.append((theory, ctx, lhs, rhs, group))
    return out


class Workload:
    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        self.files = {}

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[name] = path
            return path

        for ident in ("monoid", "group", "ring-module"):
            write(f"{ident}.msat", print_theory(builtin_doctrine(ident)))
        write("mset.msat", MSET)
        write("semigroup.msat", SEMIGROUP)
        group, monoid = builtin_doctrine("group"), builtin_doctrine("monoid")
        for alg in models_for(group, 6):
            if alg.name != "S3":
                write(f"{alg.name}.model", print_model(alg))
        for alg in models_for(monoid, 3):
            write(f"{alg.name}.model", print_model(alg))
        for alg, _ in faulted_catalog()[:3]:
            write(f"{alg.name}.model", print_model(alg))
        trivial = builtin_doctrine("trivial")
        for i in range(DIAGRAMS):
            for flavor in ("strict", "nonlocal"):
                X = random_trivial_diagram(make_rng(3000 + i), trivial, flavor)
                write(f"{flavor}{i}.json", json.dumps(diagram_to_data(X)))
        for i, S in enumerate(small_ssets(4000, SSETS)):
            for inflate in (False, True):
                SD = product_simplicial_diagram(trivial, S, inflate=inflate)
                write(f"sset{i}{'i' if inflate else ''}.json",
                      json.dumps(simplicial_to_data(SD)))
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.items = _universe()

    def round(self):
        """Every job of the universe once, in a seeded order: the seed
        changes the order, never the mix."""
        specs = [(verb,) + item for verb, items in self.items.items() for item in items]
        self.rng.shuffle(specs)
        return specs

    def job(self, spec, index):
        verb = spec[0]
        key = "/".join(str(x) for x in spec)
        if verb.startswith("generic"):
            return self._generic(key, *spec[1:])
        argv, expected = _argv(spec, self.files)
        return _cli_job(key, argv, expected, self.golden.get(key))

    def _generic(self, key, theory, ctx, lhs, rhs, group):
        argv = ["normalize", "--theory", self.files[f"{theory}.msat"], "--context", ctx,
                "--term", term_text(lhs), "--equal-to", term_text(rhs)]
        exact_equal = word_value(lhs, group) == word_value(rhs, group)

        def run():
            report, code = cli.run(argv)
            cli.emit_report(report)
            return code, report.get("verdict"), report["data"].get("equality")

        def check(answer):
            code, verdict, equality = answer
            if (verdict, equality, code) == ("pass", "equal", 0):
                return exact_equal, True
            if (verdict, equality, code) == ("unknown", "unknown", 3):
                return True, not exact_equal
            return False, False  # the generic engine never separates terms

        return Job(key, run, check)


def _cli_job(key, argv, expected, golden):
    def run():
        report, code = cli.run(argv)
        payload = cli.emit_report(report)
        return code, report.get("verdict"), _data_view(report), hashlib.sha256(payload).hexdigest()

    def check(answer):
        code, verdict, data, digest = answer
        ok = (code, verdict) == expected[:2] and all(
            data.get(k) == v for k, v in expected[2].items())
        ok = ok and digest == golden
        return ok, ok

    return Job(key, run, check)


def _data_view(report):
    data = report.get("data", {})
    return {k: v for k, v in data.items() if isinstance(v, (bool, int, str))}


def _universe():
    """Every CLI job of a round, keyed by verb.  Each item is a tuple of
    plain values; `_argv` turns an exact-doctrine item into a command line."""
    groups = ["Z1", "Z2", "Z3", "Z4", "Z6"]
    monoids = ["monoid-trivial", "monoid-max2", "monoid-z2", "monoid-z3", "monoid-max3"]
    ocat = "builtin:ocat:x,y;f:x>x"
    return {
        "check-theory": [(t,) for t in ("monoid", "group", "ring-module", "mset", "semigroup")],
        "hom": [
            ("builtin:group", "G,G", "G"), ("builtin:group", "G", "G,G"),
            ("builtin:monoid", "m,m", "m"), ("builtin:monoid", "m", "m,m"),
            ("builtin:trivial", "el,el", "el,el"), ("builtin:group-action", "G,X", "X"),
            ("builtin:group-action", "G,G", "G"), (ocat, "h_x_x,h_x_y", "h_x_y"),
            (ocat, "h_x_x,h_x_x", "h_x_x"),
        ],
        "compose": [
            ("builtin:group", "G,G -> G : mul(v1,v2)", "G -> G : inv(v1)"),
            ("builtin:group", "G -> G,G : v1;inv(v1)", "G,G -> G : mul(v1,v2)"),
            ("builtin:monoid", "m,m -> m,m : mul(v1,v2);v2", "m,m -> m : mul(v2,v1)"),
            ("builtin:ring-module", "R,R -> R : mul(v1,v2)", "R -> R : add(v1,v1)"),
            (ocat, "h_x_x,h_x_x -> h_x_x : comp_x_x_x(v1,v2)",
             "h_x_x -> h_x_x : comp_x_x_x(v1,v1)"),
        ],
        "check-model": [(a, b) for a in groups for b in ("Z2", "Z3", "Z4")]
        + [("Z2-bad-inv", ""), ("Z3-bad-mul", "")],
        "monad-laws": [(g,) for g in ("Z1", "Z2", "Z3")]
        + [(m,) for m in monoids] + [("Z2-bad-inv",), ("Z3-bad-mul",), ("max2-bad-unit",)],
        "free": [("builtin:group", "G", "x,y", ""), ("builtin:group", "G", "x", ""),
                 ("builtin:monoid", "m", "x,y", ""), ("builtin:monoid", "m", "x", "delta:1"),
                 ("builtin:trivial", "el", "x", "boundary:1")],
        "adjunction": [(g, gens) for g in groups[:4] for gens in ("y1", "y1,y2")],
        "strict-check": [("model", g) for g in groups[:4]]
        + [("diagram", f"{fl}{i}") for fl in ("strict", "nonlocal") for i in range(DIAGRAMS)]
        + [("simplicial", f"sset{i}{s}") for i in range(SSETS) for s in ("", "i")],
        "homotopy-probe": [(f"sset{i}{s}",) for i in range(SSETS) for s in ("", "i")],
        "rigidify": [(f"{fl}{i}",) for fl in ("strict", "nonlocal") for i in range(DIAGRAMS)],
        "localize": [(f"nonlocal{i}",) for i in range(DIAGRAMS)],
        "verify-up": [(f"{fl}{i}",) for fl in ("strict", "nonlocal") for i in range(DIAGRAMS)],
        "verify-ktk": [("builtin:trivial", "el,el"), ("builtin:trivial", "el,el,el"),
                       ("builtin:monoid", "m,m"), ("builtin:group", "G,G")],
        "normalize": [q for kind in ("unit", "equal", "distinct") for q in _queries(kind)],
        "generic-unit": _queries("unit"),
        "generic-equal": _queries("equal"),
        "generic-distinct": _queries("distinct"),
    }


PASS, FAIL = (0, "pass"), (1, "fail")


def _argv(spec, files):
    """The command line of an exact-doctrine job and its known answer
    (exit code, verdict, data fields)."""
    verb, args = spec[0], spec[1:]
    f = files
    if verb == "check-theory":
        return [verb, "--theory", f[f"{args[0]}.msat"]], (*PASS, {"round_trip": True})
    if verb == "hom":
        theory, src, tgt = args
        kind = theory.split(":")[1]
        want = hom_count(kind, src.split(","), tgt.split(","), 2)
        return [verb, "--theory", theory, "--from", src, "--to", tgt], (*PASS, {"count": want})
    if verb == "compose":
        theory, first, second = args
        return [verb, "--theory", theory, "--first", first, "--second", second], (*PASS, {})
    if verb == "check-model":
        model, other = args
        argv = [verb, "--theory", "builtin:group", "--model", f[f"{model}.model"]]
        if not other:
            return argv, (*FAIL, {})
        argv += ["--homs-against", f[f"{other}.model"]]
        return argv, (*PASS, {"homs": group_hom_count(model, other), "violations": 0})
    if verb == "monad-laws":
        (model,) = args
        theory = "builtin:group" if model.startswith("Z") else "builtin:monoid"
        outcome = FAIL if "bad" in model else PASS
        return [verb, "--theory", theory, "--model", f[f"{model}.model"]], (*outcome, {})
    if verb == "free":
        theory, sort, gens, y = args
        argv = [verb, "--theory", theory, "--sort", sort, "--generators", gens]
        if y:
            return argv + ["--y", y], (*PASS, {})
        n = len(gens.split(","))
        want = {"group": lambda: hom_count("group", ["G"] * n, ["G"], 2),
                "monoid": lambda: hom_count("monoid", ["m"] * n, ["m"], 2)}[theory[8:]]()
        return argv, (*PASS, {"count": want})
    if verb == "adjunction":
        model, gens = args
        return ([verb, "--theory", "builtin:group", "--model", f[f"{model}.model"],
                 "--sort", "G", "--generators", gens], (*PASS, {"bijection": True}))
    if verb == "strict-check":
        route, name = args
        if route == "model":
            return ([verb, "--theory", "builtin:group", "--model", f[f"{name}.model"]],
                    (*PASS, {"route": "model"}))
        argv = [verb, "--theory", "builtin:trivial", "--diagram", f[f"{name}.json"]]
        if route == "simplicial":
            outcome = FAIL if name.endswith("i") else PASS
            return argv + ["--simplicial"], (*outcome, {"route": "simplicial"})
        outcome = PASS if name.startswith("strict") else FAIL
        return argv, (*outcome, {"route": "diagram"})
    if verb == "homotopy-probe":
        (name,) = args
        outcome = FAIL if name.endswith("i") else PASS
        return ([verb, "--theory", "builtin:trivial", "--diagram", f[f"{name}.json"]],
                (*outcome, {}))
    if verb in ("rigidify", "localize", "verify-up"):
        (name,) = args
        return [verb, "--theory", "builtin:trivial", "--diagram", f[f"{name}.json"]], (*PASS, {})
    if verb == "verify-ktk":
        theory, obj = args
        return [verb, "--theory", theory, "--object", obj], (*PASS, {})
    if verb == "normalize":
        theory, ctx, lhs, rhs, group = args
        equal = word_value(lhs, group) == word_value(rhs, group)
        return ([verb, "--theory", f"builtin:{theory}", "--context", ctx, "--term",
                 term_text(lhs), "--equal-to", term_text(rhs)],
                (*(PASS if equal else FAIL), {}))
    raise ValueError(verb)


GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def record_golden(workdir: str) -> dict:
    """Digests of the report bytes of every exact-doctrine job in the
    universe, for `golden.json`."""
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{}")
    w = Workload(0, workdir)
    out = {}
    for verb, items in w.items.items():
        if verb.startswith("generic"):
            continue
        for item in items:
            spec = (verb,) + item
            argv, _ = _argv(spec, w.files)
            report, _ = cli.run(argv)
            out["/".join(str(x) for x in spec)] = hashlib.sha256(cli.emit_report(report)).hexdigest()
    return out
