import json
import subprocess
import sys

import pytest

import msat.cli as cli
import msat.diagram
import msat.models
import msat.rigidify
import msat.signature
import msat.simplicial
import msat.theory_cat
from msat.builtins import builtin_doctrine
from msat.catalog import cyclic_group, faulted_catalog
from msat.cli import VERB_OPERATIONS, build_parser, emit_report, run
from msat.dsl import diagram_to_data, print_model, print_theory, simplicial_to_data


@pytest.fixture()
def z2_file(tmp_path, group):
    path = tmp_path / "z2.model"
    path.write_text(print_model(cyclic_group(group, 2)))
    return str(path)


@pytest.fixture()
def faulted_file(tmp_path):
    alg, _ = faulted_catalog()[0]
    path = tmp_path / "bad.model"
    path.write_text(print_model(alg))
    return str(path)


def _toy_diagram_json(tmp_path, trivial):
    from test_rigidify import toy_diagram

    X = toy_diagram(trivial)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(diagram_to_data(X)))
    return str(path)


def test_hom_verb_counts(capsys):
    report, code = run(
        ["hom", "--theory", "builtin:group", "--from", "G,G", "--to", "G", "--size", "2"]
    )
    assert code == 0
    assert report["data"]["count"] == 17


def test_determinism_byte_identical():
    argv = ["hom", "--theory", "builtin:group", "--from", "G,G", "--to", "G", "--size", "2"]
    r1, _ = run(argv)
    r2, _ = run(argv)
    assert emit_report(r1) == emit_report(r2)


def test_check_theory_file(tmp_path):
    path = tmp_path / "t.msat"
    path.write_text(print_theory(builtin_doctrine("group-action")))
    report, code = run(["check-theory", "--theory", str(path)])
    assert code == 0
    assert report["data"]["sorts"] == 2 and report["data"]["ops"] == 4


def test_check_theory_syntax_error(tmp_path):
    path = tmp_path / "bad.msat"
    path.write_text("theory t sorts a op f :")
    report, code = run(["check-theory", "--theory", str(path)])
    assert code == 2
    assert report["verdict"] == "error"


def test_normalize_verbs():
    report, code = run([
        "normalize", "--theory", "builtin:group", "--context", "a:G",
        "--term", "mul(a,inv(a))",
    ])
    assert code == 0 and report["data"]["normal_form"] == "e"
    report, code = run([
        "normalize", "--theory", "builtin:monoid", "--context", "a:m, b:m",
        "--term", "mul(a,b)", "--equal-to", "mul(b,a)",
    ])
    assert code == 1 and report["data"]["equality"] == "distinct"


def test_normalize_unknown_exit_three(tmp_path):
    path = tmp_path / "t.msat"
    path.write_text(
        "theory t sorts a op f : a -> a eq (x:a) f(f(f(f(f(f(x)))))) = x end"
    )
    report, code = run([
        "normalize", "--theory", str(path), "--context", "x:a",
        "--term", "f(f(f(f(f(f(x))))))", "--equal-to", "x", "--budget", "0",
    ])
    assert code == 3 and report["verdict"] == "unknown"


def test_compose_verb():
    report, code = run([
        "compose", "--theory", "builtin:monoid",
        "--first", "m -> m,m : v1;v1",
        "--second", "m,m -> m : mul(v1,v2)",
    ])
    assert code == 0
    assert report["data"]["composite"]["terms"] == ["mul(v1,v1)"]


def test_check_model_pass_and_fail(z2_file, faulted_file):
    report, code = run(["check-model", "--theory", "builtin:group", "--model", z2_file])
    assert code == 0 and report["data"]["violations"] == 0
    report, code = run(["check-model", "--theory", "builtin:group", "--model", faulted_file])
    assert code == 1
    assert report["counterexamples"]
    assert "inv" in report["counterexamples"][0]["equation"]


def test_check_model_homs(z2_file):
    report, code = run([
        "check-model", "--theory", "builtin:group", "--model", z2_file,
        "--homs-against", z2_file,
    ])
    assert code == 0 and report["data"]["homs"] == 2


def test_monad_laws_verb(z2_file, faulted_file):
    report, code = run(["monad-laws", "--theory", "builtin:group", "--model", z2_file])
    assert code == 0
    report, code = run(["monad-laws", "--theory", "builtin:group", "--model", faulted_file])
    assert code == 1 and report["counterexamples"]


def test_monad_laws_on_dsl_theory_reports_error(tmp_path, monoid):
    """The associativity law needs free-algebra enumeration, which a
    DSL theory's generic engine does not support: the check must fail
    loudly rather than pass over no terms."""
    from msat.dsl import parse_model, parse_theory
    from msat.errors import UnsupportedDoctrine
    from msat.models import check_monad_laws

    theory = tmp_path / "monoid.msat"
    theory.write_text(print_theory(monoid))
    model = tmp_path / "bad.model"
    bad = next(a for a, _ in faulted_catalog() if a.name == "max2-bad-unit")
    model.write_text(print_model(bad))
    doc = parse_theory(theory.read_text())
    with pytest.raises(UnsupportedDoctrine):
        check_monad_laws(parse_model(model.read_text(), doc), 3)
    report, code = run(["monad-laws", "--theory", str(theory), "--model", str(model)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"].startswith("UnsupportedDoctrine: ")


def test_deep_term_reports_recursion_error():
    term = "inv(" * 3000 + "a" + ")" * 3000
    report, code = run([
        "normalize", "--theory", "builtin:group", "--context", "a:G", "--term", term,
    ])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"].startswith("RecursionError: ")


@pytest.mark.parametrize("argv, diagram, error", [
    (["hom", "--theory", "builtin:operad-nonsigma:x", "--from", "O1", "--to", "O1"],
     None, "ValueError: "),
    (["rigidify", "--theory", "builtin:trivial"], "", "JSONDecodeError: "),
    (["rigidify", "--theory", "builtin:trivial"], "{}", "KeyError: "),
])
def test_stray_exception_reports_its_type(tmp_path, argv, diagram, error):
    if diagram is not None:
        path = tmp_path / "diagram.json"
        path.write_text(diagram)
        argv = argv + ["--diagram", str(path)]
    report, code = run(argv)
    assert code == 2 and report["verdict"] == "error"
    assert report["error"].startswith(error)


@pytest.mark.parametrize("flag", ["--size", "--object-bound", "--dim-cap", "--model-bound",
                                  "--budget"])
def test_negative_bound_is_usage_error(flag):
    report, code = run(["hom", "--theory", "builtin:group", "--from", "G", "--to", "G",
                        flag, "-1"])
    assert code == 2 and report == {"verb": "hom", "verdict": "error", "error": "usage"}
    report, code = run(["hom", "--theory", "builtin:group", "--from", "G", "--to", "G",
                        flag, "0"])
    assert code == 0


def test_free_verb():
    report, code = run([
        "free", "--theory", "builtin:group", "--sort", "G",
        "--generators", "a,b", "--size", "2",
    ])
    assert code == 0 and report["data"]["count"] == 17
    report, code = run([
        "free", "--theory", "builtin:monoid", "--sort", "m",
        "--generators", "y", "--y", "delta:0", "--dim-cap", "2",
    ])
    assert code == 0
    assert set(report["data"]["levels"]) == {"0", "1", "2"}


def test_adjunction_verb(z2_file):
    report, code = run([
        "adjunction", "--theory", "builtin:group", "--model", z2_file,
        "--sort", "G", "--generators", "y1,y2",
    ])
    assert code == 0 and report["data"]["bijection"] is True


def test_strict_check_model_route(z2_file):
    report, code = run(["strict-check", "--theory", "builtin:group", "--model", z2_file])
    assert code == 0 and report["data"]["route"] == "model"


def test_strict_check_diagram_route(tmp_path, trivial):
    path = _toy_diagram_json(tmp_path, trivial)
    report, code = run(["strict-check", "--theory", "builtin:trivial", "--diagram", path])
    assert code == 1
    assert report["data"]["failures"][0]["value"] == 2


def test_simplicial_verbs(tmp_path, trivial):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    SD = product_simplicial_diagram(trivial, standard("delta", 1, cap=2))
    path = tmp_path / "sd.json"
    path.write_text(json.dumps(simplicial_to_data(SD)))
    report, code = run([
        "strict-check", "--theory", "builtin:trivial", "--diagram", str(path),
        "--simplicial",
    ])
    assert code == 0 and report["data"]["route"] == "simplicial"
    report, code = run([
        "homotopy-probe", "--theory", "builtin:trivial", "--diagram", str(path),
    ])
    assert code == 0 and report["data"]["passed_necessary_checks"] is True
    bad = product_simplicial_diagram(trivial, standard("boundary", 1, cap=2), inflate=True)
    path2 = tmp_path / "sd2.json"
    path2.write_text(json.dumps(simplicial_to_data(bad)))
    report, code = run([
        "homotopy-probe", "--theory", "builtin:trivial", "--diagram", str(path2),
    ])
    assert code == 1 and report["data"]["refuted_at"]


def test_rigidify_localize_verify(tmp_path, trivial):
    path = _toy_diagram_json(tmp_path, trivial)
    report, code = run(["rigidify", "--theory", "builtin:trivial", "--diagram", path])
    assert code == 0
    assert report["data"]["presentation"]["generators"] == {"el": ["gen_el_0", "gen_el_1"]}
    report, code = run(["localize", "--theory", "builtin:trivial", "--diagram", path,
                        "--budget", "6"])
    assert code == 0
    assert report["data"]["sizes"]["el,el"] == 4
    report, code = run(["localize", "--theory", "builtin:trivial", "--diagram", path,
                        "--budget", "0"])
    assert code == 3 and report["verdict"] == "unknown"
    report, code = run(["verify-up", "--theory", "builtin:trivial", "--diagram", path])
    assert code == 0
    report, code = run(["verify-ktk", "--theory", "builtin:trivial", "--object", "el,el"])
    assert code == 0


def test_unknown_flag_rejected():
    report, code = run(["hom", "--theory", "builtin:group", "--from", "G", "--to", "G",
                        "--bogus", "1"])
    assert code == 2


def test_out_file_and_text_format(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main([
        "hom", "--theory", "builtin:group", "--from", "G", "--to", "G",
        "--size", "1", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "msat-report/1"
    assert "format" not in data and "out" not in data


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "msat.cli", "check-theory", "--theory", "builtin:group",
         "--format", "text"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("check-theory: pass")


def test_verb_coverage_table():
    """Every spec-level engine operation is reachable through exactly one
    verb, every listed operation exists, and every verb is a subcommand."""
    seen = {}
    for verb, ops in VERB_OPERATIONS.items():
        for op in ops:
            assert op not in seen, f"{op} reachable from {verb} and {seen[op]}"
            seen[op] = verb
    modules = {
        "signature": msat.signature,
        "theory_cat": msat.theory_cat,
        "models": msat.models,
        "simplicial": msat.simplicial,
        "rigidify": msat.rigidify,
        "cli": cli,
    }
    for op in seen:
        mod, name = op.split(".")
        assert hasattr(modules[mod], name), op
    parser = build_parser()
    subparsers = next(a for a in parser._actions if getattr(a, "choices", None))
    verbs = set(VERB_OPERATIONS)
    assert verbs <= set(subparsers.choices)
    required = {
        "signature.typecheck", "signature.substitute", "signature.normalize",
        "signature.terms_equal", "signature.enumerate_terms", "signature.builtin_doctrine",
        "theory_cat.compose", "theory_cat.identity", "theory_cat.projection",
        "theory_cat.product", "theory_cat.tuple_", "theory_cat.hom_enumerate",
        "models.evaluate", "models.check_equations", "models.check_monad_laws",
        "models.as_functor", "models.check_product_preservation", "models.enumerate_homs",
        "models.free_algebra", "models.adjunction_check",
        "simplicial.standard", "simplicial.check_strict", "simplicial.homotopy_probe",
        "simplicial.degreewise_free",
        "rigidify.projection_map_set", "rigidify.check_strictly_local",
        "rigidify.surjectivity_step", "rigidify.injectivity_step", "rigidify.localize",
        "rigidify.rigidify_presentation", "rigidify.verify_universal_property",
        "rigidify.verify_ktk",
        "cli.parse_theory",
    }
    assert required <= set(seen), required - set(seen)


def test_cross_process_determinism(tmp_path):
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "msat.cli", "hom", "--theory", "builtin:group",
             "--from", "G,G", "--to", "G", "--size", "2"],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
