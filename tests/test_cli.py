import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msat.cli as cli
import msat.diagram
import msat.models
import msat.rigidify
import msat.signature
import msat.simplicial
import msat.theory_cat
from msat.builtins import builtin_doctrine
from msat.catalog import cyclic_group, faulted_catalog, ocat_model
from msat.cli import VERB_OPERATIONS, build_parser, emit_report, run
from msat.dsl import diagram_to_data, print_model, print_theory, simplicial_to_data
from msat.fuzz import make_rng, twisted_algebra_diagram


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


def test_shared_parser_keeps_nothing_between_runs(capsys):
    argv = ["normalize", "--theory", "builtin:group", "--context", "a:G",
            "--term", "mul(a,inv(a))"]
    first, code = run([*argv, "--equal-to", "e", "--budget", "3"])
    assert code == 0 and first["data"]["equality"] == "equal"
    assert first["bounds"]["budget"] == 3
    second, code = run(argv)
    assert code == 0 and "equality" not in second["data"]
    assert second["bounds"]["budget"] == 8
    for _ in range(2):
        for flag, printed in (("--help", "usage: msat"), ("--version", "msat ")):
            report, code = run([flag])
            assert code == 0 and report["_silent"]
            assert printed in capsys.readouterr().out


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


@pytest.fixture()
def group_theory_file(tmp_path):
    path = tmp_path / "group.msat"
    path.write_text(print_theory(builtin_doctrine("group")))
    return str(path)


@pytest.mark.parametrize("term, other, code", [
    ("inv(inv(a))", "a", 0),
    ("mul(a,inv(a))", "e", 0),
    ("mul(a,b)", "mul(b,a)", 3),
])
def test_generic_equal_on_dsl_group(group_theory_file, term, other, code):
    report, got = run([
        "normalize", "--theory", group_theory_file, "--context", "a:G, b:G",
        "--term", term, "--equal-to", other,
    ])
    assert got == code
    assert report["data"]["equality"] == ("equal" if code == 0 else "unknown")


def test_generic_unknown_when_equation_sort_uninhabited(tmp_path):
    """`y:b` occurs in neither side, so the equation holds vacuously in a
    model with an empty carrier for b, where f and g may differ.  The
    engine uses it only once the query has a term of sort b."""
    path = tmp_path / "vacuous.msat"
    path.write_text(
        "theory t sorts a, b op f : a -> a op g : a -> a op k : a b -> a "
        "eq (x:a, y:b) f(x) = g(x) end"
    )
    report, code = run([
        "normalize", "--theory", str(path), "--context", "x:a",
        "--term", "f(x)", "--equal-to", "g(x)",
    ])
    assert code == 3 and report["verdict"] == "unknown"
    report, code = run([
        "normalize", "--theory", str(path), "--context", "x:a, y:b",
        "--term", "k(f(x),y)", "--equal-to", "k(g(x),y)",
    ])
    assert code == 0 and report["data"]["equality"] == "equal"


def test_generic_unknown_when_never_saturating(tmp_path):
    """Every round of this theory adds classes; at --budget 8 the node
    budget ends the search before the rounds do."""
    path = tmp_path / "grow.msat"
    path.write_text(
        "theory grow sorts a op f : a -> a op g : a a -> a "
        "eq (x:a, y:a) f(x) = f(g(x,y)) end"
    )
    report, code = run([
        "normalize", "--theory", str(path), "--context", "x:a",
        "--term", "f(x)", "--equal-to", "x", "--budget", "8",
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


@pytest.mark.parametrize("theory, text, message", [
    ("trivial", "model d of trivial carrier el = {a, a, b} end",
     "d: carrier of sort el repeats element 'a'"),
    ("group", "model z of group carrier G = {0, 1, 0} table mul = [(0,0)->0, (0,1)->1, "
     "(1,0)->1, (1,1)->0] table inv = [(0)->0, (1)->1] table e = [()->0] end",
     "z: carrier of sort G repeats element '0'"),
], ids=["trivial", "group"])
def test_check_model_repeated_carrier_element(tmp_path, capsys, theory, text, message):
    path = tmp_path / "rep.model"
    path.write_text(text)
    report, code = run(["check-model", "--theory", f"builtin:{theory}", "--model", str(path)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == "InvalidParameter: " + message
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("budget, code, depth", [("0", 3, 0), ("1", 3, 1), ("2", 1, 2)])
def test_monad_laws_budget_below_depth_two_is_unknown(faulted_file, budget, code, depth):
    """At depth 1 the outer terms are variables and constants, so even
    a faulted model would pass: budgets 0 and 1 answer unknown and name
    the depth, and budget 2 finds the fault."""
    report, got = run(["monad-laws", "--theory", "builtin:group", "--model", faulted_file,
                       "--budget", budget])
    assert got == code
    if code == 3:
        assert report["verdict"] == "unknown" and not report["counterexamples"]
        assert report["data"]["note"].endswith(f"--budget {budget} gives depth {depth}")
    else:
        assert report["verdict"] == "fail" and report["counterexamples"]
        assert "note" not in report["data"]


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
     None, "InvalidParameter: "),
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
    for y in ("boundary:1", "horn:2:1"):
        report, code = run([
            "free", "--theory", "builtin:monoid", "--sort", "m",
            "--generators", "y", "--y", y, "--dim-cap", "2",
        ])
        assert code == 0 and report["data"]["identity_violations"] == []


@pytest.mark.parametrize("y", ["delta:x", "delta:1:2:3", "delta", "horn:2", "cube:1",
                               "delta:-1", "delta:\u0663"])
def test_free_y_parses_strictly(capsys, y):
    """`--y` is delta:N, boundary:N or horn:N:K with decimal N and K;
    any other spec is a parse error (exit 2, no traceback), never a set
    with a field dropped or made up."""
    report, code = run([
        "free", "--theory", "builtin:monoid", "--sort", "m",
        "--generators", "y", "--y", y,
    ])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == f"--y {y!r}: expected delta:N, boundary:N or horn:N:K"
    assert capsys.readouterr().err == ""


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


def test_strict_check_rejects_repeated_arrow(tmp_path, group):
    """A second entry for Z3's `inv(v1)` arrow would replace its table;
    the diagram is refused as a parse error (exit 2)."""
    from test_dsl import z3_functor_data

    data, pos = z3_functor_data(group)
    identity = {x: x for x in data["arrows"][pos]["map"]}
    data["arrows"].append({"source": ["G"], "target": ["G"], "terms": ["mul(inv(v1),e)"],
                           "map": identity})
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(data))
    report, code = run(["strict-check", "--theory", "builtin:group", "--diagram", str(path)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == f"arrows[{pos}] and arrows[16] both give morphism G -> G : inv(v1)"


def test_repeated_top_level_json_key_is_a_parse_error(tmp_path, trivial, capsys):
    """A second "term_bound" would silently replace the first."""
    text = Path(_toy_diagram_json(tmp_path, trivial)).read_text()
    assert text.startswith('{"object_bound": 2, "term_bound": 2,')
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"term_bound": 2,', '"term_bound": 2, "term_bound": 1,', 1))
    for verb in (["strict-check"], ["rigidify"]):
        report, code = run(verb + ["--theory", "builtin:trivial", "--diagram", str(path)])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"] == "repeated key 'term_bound' in a JSON object"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb, diagram, error", [
    ("rigidify", "", "1:1: Expecting value"),
    ("rigidify", '{"values": []\n "arrows": []}', "2:2: Expecting ',' delimiter"),
    ("rigidify", "{}", "values: missing field"),
    ("rigidify", '{"values": [], "arrows": [], "object_bound": "x", "term_bound": 2}',
     "object_bound: expected an integer, found a string"),
    ("rigidify", "[]", "the top level: expected an object, found an array"),
    ("rigidify", '{"values": [{"object": "G", "elements": []}]}',
     "values[0].object: expected an array, found a string"),
    ("homotopy-probe", "{}", "dim_cap: missing field"),
    ("homotopy-probe", '{"dim_cap": 1, "levels": [], "faces": [{"maps": {}, "level": 1}]}',
     "faces[0].index: missing field"),
], ids=["empty", "syntax", "no-values", "string-bound", "top-level-list", "string-object",
        "probe-empty", "probe-no-index"])
def test_malformed_diagram_json_is_a_parse_error(tmp_path, capsys, verb, diagram, error):
    """JSON syntax errors give their line:col, and a missing or mistyped
    field its JSON path, where they used to end in a stray exception
    with a traceback on stderr."""
    path = tmp_path / "diagram.json"
    path.write_text(diagram)
    report, code = run([verb, "--theory", "builtin:group", "--diagram", str(path)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == error
    assert capsys.readouterr().err == ""


def test_repeated_table_json_key_is_a_parse_error(tmp_path, group, capsys):
    """{"(1)": "(2)", "(1)": "(1)"} in Z3's `inv(v1)` table would keep
    only the last entry, which is the wrong inverse."""
    from test_dsl import z3_functor_data

    data, pos = z3_functor_data(group)
    assert data["arrows"][pos]["map"] == {"(0)": "(0)", "(1)": "(2)", "(2)": "(1)"}
    data["arrows"][pos]["map"] = "MAP"
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(data).replace(
        '"MAP"', '{"(0)": "(0)", "(1)": "(2)", "(1)": "(1)", "(2)": "(1)"}'
    ))
    report, code = run(["strict-check", "--theory", "builtin:group", "--diagram", str(path)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == "repeated key '(1)' in a JSON object"
    assert capsys.readouterr().err == ""


def test_strict_check_repeated_element_fails(tmp_path, trivial):
    from test_rigidify import repeated_element_diagram

    path = tmp_path / "rep.json"
    path.write_text(json.dumps(diagram_to_data(repeated_element_diagram(trivial))))
    report, code = run(["strict-check", "--theory", "builtin:trivial", "--diagram", str(path)])
    assert code == 1
    assert report["data"]["failures"] == [{"object": "el,el", "value": 2, "product": 1}]


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


def _drop_face_2_1(data):
    data["faces"] = [e for e in data["faces"] if (e["level"], e["index"]) != (2, 1)]


def _drop_terminal_table(data):
    del data["faces"][0]["maps"][""]


def _add_face_at_level_7(data):
    data["faces"].append({"level": 7, "index": 0, "maps": {}})


@pytest.mark.parametrize("corrupt, message", [
    (_drop_face_2_1, "face d_1 at level 2 missing"),
    (_drop_terminal_table, "face d_0 at level 1 has no table at ()"),
    (_add_face_at_level_7, "face d key (7, 0) is not an index below the cap 3"),
], ids=["missing-map", "missing-table", "extra-key"])
def test_malformed_simplicial_diagram_is_a_typed_error(tmp_path, trivial, capsys,
                                                        corrupt, message):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    data = simplicial_to_data(product_simplicial_diagram(trivial, standard("delta", 1, cap=3)))
    corrupt(data)
    path = tmp_path / "bad_sd.json"
    path.write_text(json.dumps(data))
    for verb in (["homotopy-probe"], ["strict-check", "--simplicial"]):
        report, code = run(verb + ["--theory", "builtin:trivial", "--diagram", str(path)])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"] == "InvalidParameter: bad simplicial diagram: " + message
        assert capsys.readouterr().err == ""


def test_text_report_is_bytes():
    report, _ = run(["hom", "--theory", "builtin:group", "--from", "G", "--to", "G"])
    text = emit_report(report, "text")
    assert isinstance(text, bytes)
    assert text.decode("utf-8") == "hom: pass (count=%d)\n" % report["data"]["count"]


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


@pytest.mark.parametrize("theory, obj, size, projection", [
    ("builtin:ring-module", "R,R", "1", "R,R -> R : v1"),
    ("builtin:group", "G,G", "0", "G,G -> G : v1"),
])
def test_verify_ktk_projection_outside_bound(capsys, theory, obj, size, projection):
    """A term bound too small for the projections is a typed error that
    names the first one, not a bare KeyError with a traceback."""
    report, code = run(["verify-ktk", "--theory", theory, "--object", obj, "--size", size])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == (
        f"HomEnumerationIncomplete: projection {projection} is not in the "
        f"representable of {obj} at term bound {size}"
    )
    assert capsys.readouterr().err == ""


def test_verify_ktk_at_object_bound_zero_is_a_typed_error(capsys):
    report, code = run(["verify-ktk", "--theory", "builtin:group", "--object", "G,G",
                        "--object-bound", "0"])
    assert code == 2
    assert report["error"] == "InvalidParameter: verify_ktk needs object bound >= 1, got 0"
    assert capsys.readouterr().err == ""


def test_strict_check_at_object_bound_zero(z2_file):
    """The truncation at object bound 0 holds the terminal object alone,
    and no constant's arrow leaves it."""
    report, code = run(["strict-check", "--theory", "builtin:group", "--model", z2_file,
                        "--object-bound", "0"])
    assert code == 0 and report["data"]["failures"] == []


def test_localize_names_a_doctrine_without_complete_hom_enumeration(tmp_path, ocat, capsys):
    X = twisted_algebra_diagram(make_rng(1), ocat_model(ocat, "codiscrete"), 2, 2,
                                duplicates=1)
    path = tmp_path / "ocat.json"
    path.write_text(json.dumps(diagram_to_data(X)))
    report, code = run(["localize", "--theory", "builtin:ocat:x,y;f:x>x",
                        "--diagram", str(path)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == (
        "HomEnumerationIncomplete: localization steps on ocat-x-y need complete "
        "hom enumeration, which only a doctrine with no operations and no "
        "equations has"
    )
    assert capsys.readouterr().err == ""


COLLAPSE = "theory collapse\nsorts el\neq (x:el, y:el) x = y\nend\n"


@pytest.mark.parametrize("theory, bound", [("collapse", "3"), ("builtin:trivial", "0")])
def test_verify_up_without_models_is_unknown(tmp_path, trivial, theory, bound):
    """No catalog model within the bound leaves nothing to check: the
    verdict is unknown, never a vacuous pass."""
    if theory == "collapse":
        theory = tmp_path / "collapse.msat"
        theory.write_text(COLLAPSE)
    report, code = run(["verify-up", "--theory", str(theory), "--model-bound", bound,
                        "--diagram", _toy_diagram_json(tmp_path, trivial)])
    assert code == 3 and report["verdict"] == "unknown"
    assert report["data"]["models"] == []
    assert report["data"]["note"] == f"no catalog model within model bound {bound}"


def test_verify_ktk_without_models_is_unknown():
    report, code = run(["verify-ktk", "--theory", "builtin:trivial", "--object", "el,el",
                        "--model-bound", "0"])
    assert code == 3 and report["verdict"] == "unknown"
    assert report["data"]["note"] == "no catalog model within model bound 0"


@pytest.mark.parametrize("verb", ["rigidify", "verify-up"])
def test_presentation_at_object_bound_zero_is_a_typed_error(tmp_path, capsys, verb):
    path = tmp_path / "ob0.json"
    path.write_text(json.dumps({"object_bound": 0, "term_bound": 2, "arrows": [],
                                "values": [{"object": [], "elements": ["pt"]}]}))
    report, code = run([verb, "--theory", "builtin:trivial", "--diagram", str(path)])
    assert code == 2 and report["verdict"] == "error"
    assert report["error"] == (
        "InvalidParameter: rigidify needs object bound >= 1, got 0")
    assert capsys.readouterr().err == ""


def test_theory_of_sorts_alone_gets_models_and_steps(tmp_path, trivial):
    """A theory file with sorts and nothing else has set models, and its
    localization steps and projection-map check run, as on
    `builtin:trivial`; with two sorts there is one model per pair of
    carrier sizes."""
    pts, ab = tmp_path / "pts.msat", tmp_path / "ab.msat"
    pts.write_text("theory pts\nsorts el\nend\n")
    ab.write_text("theory ab\nsorts a, b\nend\n")
    toy = _toy_diagram_json(tmp_path, trivial)
    sets = ["set1", "set2", "set3"]
    for argv, models in [
        (["verify-up", "--theory", str(pts), "--diagram", toy], sets),
        (["localize", "--theory", str(pts), "--diagram", toy, "--budget", "6"], None),
        (["verify-ktk", "--theory", str(pts), "--object", "el,el"], sets),
        (["verify-ktk", "--theory", str(ab), "--object", "a,b"],
         [f"set{i}x{j}" for i in (1, 2, 3) for j in (1, 2, 3)]),
    ]:
        report, code = run(argv)
        assert code == 0, report
        assert [m["model"] for m in report["data"].get("models", [])] == (models or [])
    assert report["data"]["models"][5]["product"] == 6
    report, code = run(["normalize", "--theory", str(pts), "--context", "x:el, y:el",
                        "--term", "x", "--equal-to", "y"])
    assert code == 1 and report["data"]["equality"] == "distinct"


@pytest.mark.parametrize("bound, code, note", [
    ("2", 1, "fail at object bound 2: a larger --object-bound may change the verdict"),
    ("3", 0, None),
])
def test_verify_ktk_names_its_truncation(bound, code, note):
    """Into operad-and, P1,P2 fails at object bound 2, where no
    generating arrow from P1,P1,P2 ties the product's elements to the
    projections, and passes at 3; a failing report names its bound."""
    report, got = run(["verify-ktk", "--theory", "builtin:operad-nonsigma:2",
                       "--object", "P1,P2", "--object-bound", bound])
    assert got == code
    assert report["data"].get("note") == note


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


@pytest.mark.parametrize("out", ["directory", "missing-parent"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, out):
    path = tmp_path if out == "directory" else tmp_path / "missing" / "report.json"
    code = cli.main(["hom", "--theory", "builtin:group", "--from", "G", "--to", "G",
                     "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("msat: cannot write the report to ")
    assert captured.err.count("\n") == 1


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    report, code = run(["check-model", "--theory", "builtin:group", "--model", str(tmp_path)])
    assert code == 2 and report["verdict"] == "error"
    assert "Is a directory" in report["error"]
    assert capsys.readouterr().err == ""


def _run_cli_process(argv, **env) -> subprocess.CompletedProcess:
    """`python -m msat.cli` in a child process that imports the same msat
    as this one, whether or not PYTHONPATH names its source tree."""
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "msat.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **env},
    )


def test_console_entry_point():
    proc = _run_cli_process(
        ["check-theory", "--theory", "builtin:group", "--format", "text"]
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().startswith("check-theory: pass")


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


TOY = "<toy diagram>"
GROUP = "<group theory>"


@pytest.mark.parametrize("argv, code", [
    (["hom", "--theory", "builtin:group", "--from", "G,G", "--to", "G", "--size", "2"], 0),
    (["hom", "--theory", "builtin:group-action", "--from", "G,X", "--to", "X", "--size", "2"],
     0),
    (["compose", "--theory", "builtin:group-action",
      "--first", "G,X -> G,X,X : v1;v2;act(v1,v2)",
      "--second", "G,X,X -> X : act(inv(v1),v3)"], 0),
    (["rigidify", "--theory", "builtin:trivial", "--diagram", TOY], 0),
    (["localize", "--theory", "builtin:trivial", "--diagram", TOY, "--budget", "6"], 0),
    (["verify-up", "--theory", "builtin:trivial", "--diagram", TOY], 0),
    (["strict-check", "--theory", "builtin:trivial", "--diagram", TOY], 1),
    (["verify-ktk", "--theory", "builtin:group-action", "--object", "G,X"], 0),
    (["normalize", "--theory", GROUP, "--context", "a:G", "--term", "inv(inv(a))",
      "--equal-to", "a"], 0),
    (["normalize", "--theory", GROUP, "--context", "a:G, b:G", "--term", "mul(a,b)",
      "--equal-to", "mul(b,a)"], 3),
], ids=["hom-group", "hom-group-action", "compose", "rigidify", "localize", "verify-up",
        "strict-check", "verify-ktk", "generic-equal", "generic-node-budget"])
def test_cross_process_determinism(tmp_path, trivial, group_theory_file, argv, code):
    """Report bytes do not depend on the hash seed or on object addresses."""
    if TOY in argv:
        toy = _toy_diagram_json(tmp_path, trivial)
        argv = [toy if a == TOY else a for a in argv]
    argv = [group_theory_file if a == GROUP else a for a in argv]
    outs = []
    for seed in ("1", "2"):
        proc = _run_cli_process(argv, PYTHONHASHSEED=seed)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout
        outs.append(proc.stdout)
    assert outs[0] == outs[1]



def _face_leaves_level(data):
    table = next(e for e in data["faces"] if (e["level"], e["index"]) == (1, 0))["maps"]["el,el"]
    table[next(iter(table))] = "((9),(9))"


def _table_outside_truncation(data):
    next(e for e in data["faces"] if (e["level"], e["index"]) == (1, 0))["maps"]["el,el,el"] = {}


def _negative_cap(data):
    data.clear()
    data.update({"dim_cap": -1, "levels": [], "faces": [], "degeneracies": []})


@pytest.mark.parametrize("corrupt, error", [
    (_face_leaves_level, "bad simplicial diagram: at el,el: not a simplicial set: "
                         "face d_0 at level 1 leaves the level set"),
    (_table_outside_truncation, "bad simplicial diagram: face d_0 at level 1 "
                                "has a table at el,el,el outside the truncation"),
    (_negative_cap, "dimension cap must be >= 0"),
], ids=["leaves-level", "outside-truncation", "negative-cap"])
def test_malformed_simplicial_input_is_a_typed_error(tmp_path, trivial, capsys, corrupt, error):
    """Recorded before `number_parts` reported the tables that do not
    number: the leaves-level case passed then, the other two did not."""
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    data = simplicial_to_data(product_simplicial_diagram(trivial, standard("delta", 1, cap=3)))
    corrupt(data)
    path = tmp_path / "bad_input.json"
    path.write_text(json.dumps(data))
    for verb in (["homotopy-probe"], ["strict-check", "--simplicial"]):
        report, code = run(verb + ["--theory", "builtin:trivial", "--diagram", str(path)])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"] == "InvalidParameter: " + error
        assert capsys.readouterr().err == ""


def test_values_outside_the_truncation_are_a_typed_error(tmp_path, trivial, capsys):
    from msat.fuzz import make_rng, random_trivial_diagram

    data = diagram_to_data(random_trivial_diagram(make_rng(3), trivial))
    data["values"].append({"object": ["el", "el", "el"], "elements": ["a", "b"]})
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(data))
    report, code = run(["strict-check", "--theory", "builtin:trivial", "--diagram", str(path)])
    assert code == 2 and report["error"] == (
        "InvalidParameter: malformed diagram: values at el,el,el leave the truncation")
    assert capsys.readouterr().err == ""


def _element_array(data):
    data["values"][1]["elements"][0] = ["x"]
    return "values[1].elements[0]: expected a scalar, found an array"


def _map_image_array(data):
    table = data["arrows"][0]["map"]
    key = next(iter(table))
    table[key] = ["x"]
    return f"arrows[0].map[{key!r}]: expected a scalar, found an array"


def _map_image_object(data):
    table = data["arrows"][0]["map"]
    key = next(iter(table))
    table[key] = {"x": "y"}
    return f"arrows[0].map[{key!r}]: expected a scalar, found an object"


def _terminal_only_negative_object_bound(data):
    data["object_bound"] = -1
    data["values"] = [v for v in data["values"] if v["object"] == []]
    data["arrows"] = [a for a in data["arrows"] if a["source"] == a["target"] == []]
    return "object_bound: bound must be >= 0, got -1"


def _negative_term_bound(data):
    data["term_bound"] = -5
    return "term_bound: bound must be >= 0, got -5"


@pytest.mark.parametrize("corrupt", [
    _element_array, _map_image_array, _map_image_object,
    _terminal_only_negative_object_bound, _negative_term_bound,
], ids=["element-array", "image-array", "image-object", "negative-object-bound",
        "negative-term-bound"])
def test_compound_element_or_negative_bound_is_a_parse_error(tmp_path, trivial, capsys, corrupt):
    """A compound element or image and a negative bound name their JSON
    path; each ended in a traceback or a vacuous pass before."""
    from msat.fuzz import make_rng, random_trivial_diagram

    data = diagram_to_data(random_trivial_diagram(make_rng(3), trivial))
    error = corrupt(data)
    path = tmp_path / "bad_diagram.json"
    path.write_text(json.dumps(data))
    for verb in ("strict-check", "localize", "rigidify", "verify-up"):
        report, code = run([verb, "--theory", "builtin:trivial", "--diagram", str(path)])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"] == error
        assert capsys.readouterr().err == ""


def _face_image_array(data):
    table = next(e for e in data["faces"] if (e["level"], e["index"]) == (1, 0))["maps"]["el,el"]
    key = next(iter(table))
    table[key] = ["x"]
    pos = next(i for i, e in enumerate(data["faces"]) if (e["level"], e["index"]) == (1, 0))
    return f"faces[{pos}].maps['el,el'][{key!r}]: expected a scalar, found an array"


def _level_negative_object_bound(data):
    data["levels"][1]["object_bound"] = -1
    return "levels[1]: object_bound: bound must be >= 0, got -1"


@pytest.mark.parametrize("corrupt", [_face_image_array, _level_negative_object_bound],
                         ids=["face-image-array", "level-negative-object-bound"])
def test_compound_face_image_or_negative_level_bound_is_a_parse_error(tmp_path, trivial, capsys, corrupt):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    data = simplicial_to_data(product_simplicial_diagram(trivial, standard("delta", 1, cap=3)))
    error = corrupt(data)
    path = tmp_path / "bad_simplicial.json"
    path.write_text(json.dumps(data))
    for verb in (["homotopy-probe"], ["strict-check", "--simplicial"]):
        report, code = run(verb + ["--theory", "builtin:trivial", "--diagram", str(path)])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"] == error
        assert capsys.readouterr().err == ""


# -- the repeated-entry gate: every valid input, one entry repeated -------

THEORIES = sorted((Path(__file__).parent / "data" / "theories").glob("*.msat"))


def _theory_mutants(text):
    """(text, expected error) for each sort and each op declaration of a
    theory, that declaration repeated once: a sort named again at the
    end of its `sorts` line, an `op` line given twice."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        head, _, rest = line.strip().partition(" ")
        if head == "sorts":
            for name in rest.split(","):
                name = name.strip()
                mutant = line.rstrip("\n") + f", {name}\n"
                yield "".join(lines[:i] + [mutant] + lines[i + 1:]), f"duplicate sort '{name}'"
        elif head == "op":
            name = rest.split(":")[0].strip()
            yield "".join(lines[:i + 1] + [line] + lines[i + 1:]), f"duplicate op '{name}'"


@pytest.mark.parametrize("path", THEORIES, ids=[p.stem for p in THEORIES])
def test_repeated_declaration_in_a_theory_is_a_parse_error(tmp_path, capsys, path):
    mutants = list(_theory_mutants(path.read_text()))
    assert any("sort" in error for _, error in mutants)
    for text, error in mutants:
        mutant = tmp_path / path.name
        mutant.write_text(text)
        report, code = run(["check-theory", "--theory", str(mutant)])
        assert code == 2 and report["verdict"] == "error", (text, report)
        line, col, message = report["error"].split(":", 2)
        assert line.isdigit() and col.isdigit() and message == " " + error, text
        assert capsys.readouterr().err == ""


def _json_with_repeat(value, repeat, path=()):
    """The JSON text of `value` with the entry at `repeat`, a (path of an
    object, key) pair, written twice in a row."""
    if isinstance(value, dict):
        entries = []
        for key, item in value.items():
            entries.append(json.dumps(key) + ": " + _json_with_repeat(item, repeat, path + (key,)))
            if (path, key) == repeat:
                entries.append(entries[-1])
        return "{" + ", ".join(entries) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(
            _json_with_repeat(item, repeat, path + (i,)) for i, item in enumerate(value)
        ) + "]"
    return json.dumps(value)


def _json_repeats(value, path=(), kinds=None):
    """(object path, key) for every key of the first nonempty object of
    each kind, a kind being an object path with its array indices
    left out."""
    kinds = set() if kinds is None else kinds
    if isinstance(value, dict):
        kind = tuple(p for p in path if not isinstance(p, int))
        if value and kind not in kinds:
            kinds.add(kind)
            yield from ((path, key) for key in value)
        for key, item in value.items():
            yield from _json_repeats(item, path + (key,), kinds)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_repeats(item, path + (i,), kinds)


def _toy_data(doctrines):
    from test_rigidify import toy_diagram

    return diagram_to_data(toy_diagram(doctrines["trivial"]))


def _z3_data(doctrines):
    from test_dsl import z3_functor_data

    return z3_functor_data(doctrines["group"])[0]


def _repeated_element_data(doctrines):
    from test_rigidify import repeated_element_diagram

    return diagram_to_data(repeated_element_diagram(doctrines["trivial"]))


def _simplicial_data(doctrines):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    return simplicial_to_data(product_simplicial_diagram(doctrines["trivial"],
                                                         standard("delta", 1, cap=2)))


@pytest.mark.parametrize("data, theory, verbs", [
    (_toy_data, "trivial", [["rigidify"], ["localize"], ["strict-check"]]),
    (_z3_data, "group", [["strict-check"]]),
    (_repeated_element_data, "trivial", [["strict-check"]]),
    (_simplicial_data, "trivial", [["strict-check", "--simplicial"]]),
], ids=["toy", "z3", "repeated-element", "simplicial"])
def test_repeated_key_in_a_diagram_is_a_parse_error(tmp_path, capsys, trivial, group,
                                                    data, theory, verbs):
    """The diagram JSON the tests above feed to rigidify, localize and
    strict-check, each key of each kind of object repeated in turn."""
    value = data({"trivial": trivial, "group": group})
    repeats = list(_json_repeats(value))
    assert len(repeats) >= 8
    path = tmp_path / "diagram.json"
    for repeat in repeats:
        path.write_text(_json_with_repeat(value, repeat))
        for verb in verbs:
            report, code = run(verb + ["--theory", f"builtin:{theory}", "--diagram", str(path)])
            assert code == 2 and report["verdict"] == "error", (repeat, verb, report)
            assert report["error"] == f"repeated key {repeat[1]!r} in a JSON object"
            assert capsys.readouterr().err == ""
