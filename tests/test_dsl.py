import json
from pathlib import Path

import pytest

from msat.builtins import builtin_doctrine
from msat.catalog import cyclic_group, faulted_catalog, models_for
from msat.dsl import (
    diagram_from_data,
    diagram_to_data,
    parse_context_text,
    parse_model,
    parse_morphism_text,
    parse_object_text,
    parse_term_text,
    parse_theory,
    print_model,
    print_theory,
    simplicial_from_data,
    simplicial_to_data,
)
from msat.engines import BoundedGenericEngine
from msat.errors import ParseError
from msat.models import as_functor
from msat.signature import EqResult, Var, print_term, terms_equal

DATA = Path(__file__).parent / "data"

ALL_BUILTINS = [
    ("trivial", {}),
    ("monoid", {}),
    ("group", {}),
    ("group-action", {}),
    ("ring-module", {}),
    ("operad-nonsigma", {"level_cap": 2}),
    ("operad-symmetric", {"level_cap": 2}),
    ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "x"),)}),
]


@pytest.mark.parametrize("ident,kwargs", ALL_BUILTINS)
def test_builtin_round_trip(ident, kwargs):
    doc = builtin_doctrine(ident, **kwargs)
    text = print_theory(doc)
    assert print_theory(parse_theory(text)) == text


@pytest.mark.parametrize("path", sorted((DATA / "theories").glob("*.msat")))
def test_corpus_round_trip(path):
    text = path.read_text()
    doc = parse_theory(text)
    printed = print_theory(doc)
    assert print_theory(parse_theory(printed)) == printed


@pytest.mark.parametrize("path", sorted((DATA / "malformed").glob("*.msat")))
def test_malformed_positioned_errors(path):
    with pytest.raises(ParseError) as err:
        parse_theory(path.read_text())
    assert err.value.line is not None and err.value.col is not None


def test_error_positions_are_exact():
    with pytest.raises(ParseError) as err:
        parse_theory("theory t\nsorts a\nop f : a -> zz\nend")
    assert (err.value.line, err.value.col) == (3, 13)


def test_parsed_doctrine_matches_builtin_shape(action):
    doc = parse_theory((DATA / "theories" / "mset.msat").read_text())
    assert len(doc.sorts) == 2
    assert len(doc.ops) == 3  # monoid action: mul, e, act
    assert len(doc.equations) == 5


def test_theory_of_sorts_alone_is_exact(trivial):
    """No operations and no equations: the parsed theory has the trivial
    doctrine's exact engine and its set models."""
    doc = parse_theory(print_theory(trivial))
    assert doc.sorts_only and doc.exact
    assert [alg.name for alg in models_for(doc)] == ["set1", "set2", "set3"]
    x, y = (Var(n, doc.sort("el")) for n in "xy")
    assert terms_equal(x, y, doc) is EqResult.DISTINCT


def test_equation_without_operations_keeps_the_generic_engine():
    """`x = y` collapses the sort, so literal equality of variables would
    answer distinct where the truth is equal."""
    doc = parse_theory("theory collapse\nsorts el\neq (x:el, y:el) x = y\nend\n")
    assert not doc.sorts_only and isinstance(doc.engine, BoundedGenericEngine)
    x, y = (Var(n, doc.sort("el")) for n in "xy")
    assert terms_equal(x, y, doc) is EqResult.EQUAL
    assert models_for(doc) == []


def test_model_round_trip(group):
    z3 = cyclic_group(group, 3)
    text = print_model(z3)
    again = parse_model(text, group)
    assert print_model(again) == text
    assert again.carriers[group.sort("G")] == ("0", "1", "2")


def test_model_of_wrong_theory(group, monoid):
    z2 = cyclic_group(group, 2)
    with pytest.raises(ParseError):
        parse_model(print_model(z2), monoid)


def test_model_missing_table(group):
    text = "model m of group\ncarrier G = {0}\nend"
    with pytest.raises(Exception):
        parse_model(text, group)


@pytest.mark.parametrize("statement, message, position", [
    ("carrier G = {1}", "duplicate carrier for sort 'G'", (6, 9)),
    ("table e = [()->1]", "duplicate table for op 'e'", (6, 7)),
], ids=["carrier", "table"])
def test_model_repeated_statement(group, statement, message, position):
    text = print_model(cyclic_group(group, 2)).replace("end\n", statement + "\nend\n")
    with pytest.raises(ParseError, match=message) as err:
        parse_model(text, group)
    assert (err.value.line, err.value.col) == position


@pytest.mark.parametrize("repeat, message, position", [
    ("(0,0)->1", r"duplicate entry \(0,0\) in table for op 'mul'", (3, 54)),
    ("(0,0)->0", r"duplicate entry \(0,0\) in table for op 'mul'", (3, 54)),
    ("(1)->1", r"duplicate entry \(1\) in table for op 'inv'", (4, 30)),
], ids=["different", "identical", "unary"])
def test_model_repeated_table_entry(group, repeat, message, position):
    """A second entry for one argument tuple is an error at its `(`, not
    a silent overwrite, even when it repeats the first entry."""
    op = "mul" if "," in repeat else "inv"
    lines = print_model(cyclic_group(group, 2)).splitlines()
    text = "\n".join(
        line.replace("]", f", {repeat}]") if line.startswith(f"table {op} ") else line
        for line in lines
    )
    with pytest.raises(ParseError, match=message) as err:
        parse_model(text, group)
    assert (err.value.line, err.value.col) == position


THEORY_HEAD = "theory t\nsorts s\nop f : s s -> s\n"
MODEL_HEAD = "model m of group\n"


@pytest.mark.parametrize("text, position", [
    (THEORY_HEAD + "eq (x:s y:s) f(x,y) = f(y,x)\nend", (4, 9)),
    (THEORY_HEAD + "eq (x:s, y:s,) f(x,y) = f(y,x)\nend", (4, 14)),
], ids=["binding-missing-comma", "binding-trailing-comma"])
def test_theory_lists_follow_the_grammar(text, position):
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert (err.value.line, err.value.col) == position


@pytest.mark.parametrize("statement, position", [
    ("carrier G = {0 1}", (2, 16)),
    ("carrier G = {0, 1,}", (2, 19)),
    ("table e = [()->0 ()->0]", (2, 18)),
    ("table e = [()->0,]", (2, 18)),
    ("table mul = [(0 0)->0]", (2, 17)),
    ("table inv = [(0,)->0]", (2, 17)),
], ids=["element-missing-comma", "element-trailing-comma", "entry-missing-comma",
        "entry-trailing-comma", "argument-missing-comma", "argument-trailing-comma"])
def test_model_lists_follow_the_grammar(group, statement, position):
    with pytest.raises(ParseError) as err:
        parse_model(MODEL_HEAD + statement + "\nend\n", group)
    assert (err.value.line, err.value.col) == position


def test_empty_lists_parse():
    doc = parse_theory("theory t\nsorts s, u\nop c : -> u\nop f : s -> s\neq () c = c\nend")
    assert len(doc.equations[0].context.vars) == 0
    text = "model m of t\ncarrier s = {}\ncarrier u = {0}\ntable c = [()->0]\ntable f = []\nend\n"
    alg = parse_model(text, doc)
    assert print_model(alg) == text
    assert print_theory(parse_theory(print_theory(doc))) == print_theory(doc)


def test_faulted_models_round_trip():
    for alg, _ in faulted_catalog():
        text = print_model(alg)
        again = parse_model(text, alg.doctrine)
        assert print_model(again) == text


def test_term_and_context_parsing(group):
    ctx = parse_context_text("a:G, b:G", group)
    t = parse_term_text("mul(a,inv(b))", ctx, group)
    assert print_term(t) == "mul(a,inv(b))"
    with pytest.raises(ParseError):
        parse_term_text("mul(a)", ctx, group)
    with pytest.raises(ParseError):
        parse_term_text("mul(a,zz)", ctx, group)


def test_object_and_morphism_parsing(group):
    obj = parse_object_text("G,G", group)
    assert obj.size == 2
    assert parse_object_text("0", group).size == 0
    m = parse_morphism_text("G,G -> G : mul(v1,v2)", group)
    assert m.source == obj


def test_diagram_json_round_trip(trivial):
    from msat.fuzz import make_rng, random_trivial_diagram

    rng = make_rng(9)
    X = random_trivial_diagram(rng, trivial, "any")
    data = diagram_to_data(X)
    again = diagram_from_data(json.loads(json.dumps(data)), trivial)
    assert diagram_to_data(again) == data
    assert again.check_functorial() == []


def test_simplicial_json_round_trip(trivial):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    SD = product_simplicial_diagram(trivial, standard("delta", 1, cap=2))
    data = simplicial_to_data(SD)
    again = simplicial_from_data(json.loads(json.dumps(data)), trivial)
    assert simplicial_to_data(again) == data


def z3_functor_data(group):
    """The JSON of Z3's functor, and the position of its `inv(v1)` arrow."""
    data = diagram_to_data(as_functor(cyclic_group(group, 3)))
    pos = next(i for i, a in enumerate(data["arrows"]) if a["terms"] == ["inv(v1)"])
    return data, pos


def test_diagram_repeated_arrow_entry(group):
    data, pos = z3_functor_data(group)
    data["arrows"].append(dict(data["arrows"][pos]))
    with pytest.raises(ParseError, match=rf"arrows\[{pos}\] and arrows\[16\] both give "
                                         r"morphism G -> G : inv\(v1\)$"):
        diagram_from_data(data, group)


def test_diagram_arrow_entry_repeated_by_normal_form(group):
    """A second spelling of one morphism is a repeat too, whatever map
    it gives: `mul(inv(v1),e)` normalizes to `inv(v1)`."""
    data, pos = z3_functor_data(group)
    identity = {x: x for x in data["arrows"][pos]["map"]}
    data["arrows"].append({"source": ["G"], "target": ["G"], "terms": ["mul(inv(v1),e)"],
                           "map": identity})
    with pytest.raises(ParseError, match=rf"arrows\[{pos}\] and arrows\[16\]"):
        diagram_from_data(data, group)


def test_diagram_repeated_values_entry(group):
    data, _ = z3_functor_data(group)
    n = len(data["values"])
    data["values"].append(dict(data["values"][1]))
    with pytest.raises(ParseError, match=rf"values\[1\] and values\[{n}\] both give object G$"):
        diagram_from_data(data, group)


@pytest.mark.parametrize("field", ["faces", "degeneracies"])
def test_simplicial_repeated_map_entry(trivial, field):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    data = simplicial_to_data(product_simplicial_diagram(trivial, standard("delta", 1, cap=2)))
    n = len(data[field])
    first = data[field][0]
    data[field].append(first)
    level, index = first["level"], first["index"]
    with pytest.raises(ParseError, match=rf"{field}\[0\] and {field}\[{n}\] both give "
                                         rf"level {level}, index {index}$"):
        simplicial_from_data(data, trivial)


def test_simplicial_map_keys_spelling_one_object(trivial):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    data = simplicial_to_data(product_simplicial_diagram(trivial, standard("delta", 1, cap=2)))
    maps = data["faces"][0]["maps"]
    key = next(k for k in maps if "," in k)
    maps[key.replace(",", ", ")] = maps[key]
    with pytest.raises(ParseError, match=rf"^faces\[0\]\.maps\['{key}'\] and "
                                         rf"faces\[0\]\.maps\['{key.replace(',', ', ')}'\] "
                                         rf"both give object {key}$"):
        simplicial_from_data(data, trivial)


def test_simplicial_level_repeat_names_its_level(trivial):
    from msat.fuzz import product_simplicial_diagram
    from msat.simplicial import standard

    data = simplicial_to_data(product_simplicial_diagram(trivial, standard("delta", 1, cap=2)))
    arrows = data["levels"][1]["arrows"]
    arrows.append(arrows[0])
    with pytest.raises(ParseError, match=rf"^levels\[1\]: arrows\[0\] and "
                                         rf"arrows\[{len(arrows) - 1}\] both give "):
        simplicial_from_data(data, trivial)
