"""Text formats: the theory DSL, the model format, and JSON codecs for
diagrams and simplicial diagrams.

Theory grammar (LL(1), `#` comments, newline-insensitive):

    theory    := "theory" IDENT decl* "end"
    decl      := "sorts" IDENT ("," IDENT)*
               | "op" IDENT ":" IDENT* "->" IDENT
               | "eq" "(" [binding ("," binding)*] ")" term "=" term
    binding   := IDENT ":" IDENT
    term      := IDENT | IDENT "(" [term ("," term)*] ")"

Model grammar:

    model     := "model" IDENT "of" IDENT stmt* "end"
    stmt      := "carrier" IDENT "=" "{" [elem ("," elem)*] "}"
               | "table" IDENT "=" "[" [entry ("," entry)*] "]"
    entry     := "(" [elem ("," elem)*] ")" "->" elem

Elements are identifiers or integers and are handled as strings.  A
sort takes one `carrier` statement and an op one `table` statement,
with one entry per argument tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diagram import DiagramOnTruncation, diagram_to_json, table_to_json
from .engines import BoundedGenericEngine, TrivialEngine
from .errors import ParseError
from .models import FiniteAlgebra
from .signature import (
    App,
    Context,
    Doctrine,
    Equation,
    OpSymbol,
    Sort,
    Term,
    Var,
    print_term,
    typecheck,
)
from .simplicial import SimplicialDiagram
from .theory_cat import TheoryMorphism, TheoryObject, make_morphism, object_from_json

_PUNCT = ("->", ",", ":", "(", ")", "=", "{", "}", "[", "]")


@dataclass
class Token:
    kind: str  # "ident", "int", or the punctuation itself
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            out.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in ",:()={}[]":
            out.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return out


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, kind=None, what=None) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError(f"unexpected end of input (expected {what or kind})",
                             last.line, last.col)
        if kind is not None and tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok.value!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def keyword(self, word: str) -> Token:
        tok = self.next("ident", f"keyword {word!r}")
        if tok.value != word:
            raise ParseError(f"expected {word!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def items(self, close: str, item) -> list:
        """`[item ("," item)*]` up to the `close` token, which is
        consumed: an empty list when `close` comes first, and a missing
        or trailing comma is an error at the offending token."""
        out = []
        tok = self.peek()
        if tok is None or tok.kind != close:
            out.append(item())
            while self.peek() is not None and self.peek().kind == ",":
                self.next(",")
                out.append(item())
        self.next(close)
        return out


def _element(st: _Stream) -> str:
    tok = st.next(None, "an element")
    if tok.kind not in ("ident", "int"):
        raise ParseError(f"expected an element, found {tok.value!r}", tok.line, tok.col)
    return tok.value


def _parse_term(st: _Stream, ops: dict, variables: dict) -> Term:
    tok = st.next(None, "a term")
    if tok.kind not in ("ident", "int"):
        raise ParseError(f"expected a term, found {tok.value!r}", tok.line, tok.col)
    name = tok.value
    following = st.peek()
    if following is not None and following.kind == "(" and name in ops:
        st.next("(")
        args = st.items(")", lambda: _parse_term(st, ops, variables))
        op = ops[name]
        if len(args) != op.arity:
            raise ParseError(
                f"op {name!r} expects {op.arity} arguments, got {len(args)}",
                tok.line, tok.col,
            )
        return App(op, tuple(args))
    if name in ops:
        op = ops[name]
        if op.arity != 0:
            raise ParseError(
                f"op {name!r} needs {op.arity} arguments", tok.line, tok.col
            )
        return App(op)
    if name in variables:
        return variables[name]
    raise ParseError(f"unknown name {name!r}", tok.line, tok.col)


def parse_theory(text: str) -> Doctrine:
    st = _Stream(tokenize(text))
    st.keyword("theory")
    name_tok = st.next("ident", "theory name")
    sorts: dict[str, Sort] = {}
    ops: dict[str, OpSymbol] = {}
    equations: list[Equation] = []
    while True:
        tok = st.peek()
        if tok is None:
            raise ParseError("missing 'end'", name_tok.line, name_tok.col)
        if tok.kind != "ident":
            raise ParseError(f"expected a declaration, found {tok.value!r}",
                             tok.line, tok.col)
        if tok.value == "end":
            st.next()
            break
        if tok.value == "sorts":
            st.next()
            while True:
                s = st.next("ident", "sort name")
                if s.value in sorts:
                    raise ParseError(f"duplicate sort {s.value!r}", s.line, s.col)
                sorts[s.value] = Sort(s.value)
                if st.peek() is not None and st.peek().kind == ",":
                    st.next(",")
                else:
                    break
        elif tok.value == "op":
            st.next()
            op_tok = st.next("ident", "op name")
            if op_tok.value in ops:
                raise ParseError(f"duplicate op {op_tok.value!r}", op_tok.line, op_tok.col)
            st.next(":")
            domain = []
            while st.peek() is not None and st.peek().kind == "ident":
                s = st.next("ident")
                if s.value not in sorts:
                    raise ParseError(f"unknown sort {s.value!r}", s.line, s.col)
                domain.append(sorts[s.value])
            st.next("->")
            cod = st.next("ident", "codomain sort")
            if cod.value not in sorts:
                raise ParseError(f"unknown sort {cod.value!r}", cod.line, cod.col)
            ops[op_tok.value] = OpSymbol(op_tok.value, tuple(domain), sorts[cod.value])
        elif tok.value == "eq":
            st.next()
            st.next("(")
            variables: dict[str, Var] = {}

            def binding():
                v = st.next("ident", "variable name")
                if v.value in variables:
                    raise ParseError(f"duplicate variable {v.value!r}", v.line, v.col)
                if v.value in ops:
                    raise ParseError(
                        f"variable {v.value!r} shadows an op name", v.line, v.col
                    )
                st.next(":")
                s = st.next("ident", "sort name")
                if s.value not in sorts:
                    raise ParseError(f"unknown sort {s.value!r}", s.line, s.col)
                variables[v.value] = Var(v.value, sorts[s.value])

            st.items(")", binding)
            lhs = _parse_term(st, ops, variables)
            eq_tok = st.next("=")
            rhs = _parse_term(st, ops, variables)
            ctx = Context(tuple(variables.values()))
            doc_probe = Doctrine(
                "probe", tuple(sorts.values()), tuple(ops.values()), (), BoundedGenericEngine()
            )
            ls = typecheck(lhs, ctx, doc_probe)
            rs = typecheck(rhs, ctx, doc_probe)
            if ls != rs:
                raise ParseError(
                    f"equation sides have sorts {ls.name} != {rs.name}",
                    eq_tok.line, eq_tok.col,
                )
            equations.append(Equation(ctx, lhs, rhs, f"eq{len(equations) + 1}"))
        else:
            raise ParseError(f"unknown declaration {tok.value!r}", tok.line, tok.col)
    if st.peek() is not None:
        tok = st.peek()
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    doc = Doctrine(
        name_tok.value,
        tuple(sorts.values()),
        tuple(ops.values()),
        tuple(equations),
        BoundedGenericEngine(),
        meta={"kind": "user"},
    )
    if doc.sorts_only:
        return replace(doc, engine=TrivialEngine())
    doc.engine.attach(doc)
    return doc


def print_theory(doc: Doctrine) -> str:
    lines = [f"theory {doc.name.replace('-', '_')}"]
    if doc.sorts:
        lines.append("sorts " + ", ".join(s.name for s in doc.sorts))
    for op in doc.ops:
        dom = " ".join(s.name for s in op.domain)
        dom = dom + " " if dom else ""
        lines.append(f"op {op.name} : {dom}-> {op.codomain.name}")
    for eq in doc.equations:
        binder = ", ".join(f"{v.name}:{v.sort.name}" for v in eq.context.vars)
        lines.append(f"eq ({binder}) {print_term(eq.lhs)} = {print_term(eq.rhs)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_model(text: str, doctrine: Doctrine) -> FiniteAlgebra:
    st = _Stream(tokenize(text))
    st.keyword("model")
    name = st.next("ident", "model name")
    st.keyword("of")
    of = st.next("ident", "theory name")
    if of.value != doctrine.name.replace("-", "_") and of.value != doctrine.name:
        raise ParseError(
            f"model is for theory {of.value!r}, not {doctrine.name!r}", of.line, of.col
        )
    carriers: dict[Sort, tuple] = {}
    tables: dict[str, dict] = {}
    while True:
        tok = st.peek()
        if tok is None:
            raise ParseError("missing 'end'", name.line, name.col)
        if tok.kind == "ident" and tok.value == "end":
            st.next()
            break
        if tok.kind == "ident" and tok.value == "carrier":
            st.next()
            s = st.next("ident", "sort name")
            sort = None
            for cand in doctrine.sorts:
                if cand.name == s.value:
                    sort = cand
            if sort is None:
                raise ParseError(f"unknown sort {s.value!r}", s.line, s.col)
            if sort in carriers:
                raise ParseError(f"duplicate carrier for sort {s.value!r}", s.line, s.col)
            st.next("=")
            st.next("{")
            carriers[sort] = tuple(st.items("}", lambda: _element(st)))
        elif tok.kind == "ident" and tok.value == "table":
            st.next()
            opname = st.next("ident", "op name")
            if not doctrine.has_op(opname.value):
                raise ParseError(f"unknown op {opname.value!r}", opname.line, opname.col)
            if opname.value in tables:
                raise ParseError(
                    f"duplicate table for op {opname.value!r}", opname.line, opname.col
                )
            st.next("=")
            st.next("[")
            table = tables[opname.value] = {}

            def entry():
                opening = st.next("(")
                args = tuple(st.items(")", lambda: _element(st)))
                if args in table:
                    raise ParseError(
                        f"duplicate entry ({','.join(args)}) in table for op {opname.value!r}",
                        opening.line, opening.col,
                    )
                st.next("->")
                table[args] = _element(st)

            st.items("]", entry)
        else:
            raise ParseError(f"unknown statement {tok.value!r}", tok.line, tok.col)
    return FiniteAlgebra(doctrine, carriers, tables, name.value)


def print_model(alg: FiniteAlgebra) -> str:
    lines = [
        f"model {alg.name.replace('-', '_')} of {alg.doctrine.name.replace('-', '_')}"
    ]
    for s in alg.doctrine.sorts:
        lines.append(
            "carrier %s = {%s}" % (s.name, ", ".join(str(e) for e in alg.carriers[s]))
        )
    for op in alg.doctrine.ops:
        entries = []
        for args, val in sorted(alg.tables[op.name].items(), key=lambda p: tuple(map(str, p[0]))):
            entries.append("(%s)->%s" % (",".join(str(a) for a in args), val))
        lines.append("table %s = [%s]" % (op.name, ", ".join(entries)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_term_text(text: str, context: Context, doctrine: Doctrine) -> Term:
    st = _Stream(tokenize(text))
    ops = {op.name: op for op in doctrine.ops}
    variables = {v.name: v for v in context.vars}
    term = _parse_term(st, ops, variables)
    if st.peek() is not None:
        tok = st.peek()
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    typecheck(term, context, doctrine)
    return term


def parse_context_text(text: str, doctrine: Doctrine) -> Context:
    """Comma-separated bindings: "a:G, b:G"."""
    pairs = []
    if text.strip():
        for chunk in text.split(","):
            name, _, sortname = chunk.strip().partition(":")
            if not name or not sortname:
                raise ParseError(f"bad binding {chunk.strip()!r}; expected name:sort")
            pairs.append((name.strip(), doctrine.sort(sortname.strip())))
    return Context.of(*pairs)


def parse_object_text(text: str, doctrine: Doctrine) -> TheoryObject:
    text = text.strip()
    if text in ("", "0", "()"):
        return TheoryObject(())
    return TheoryObject.of(*(doctrine.sort(p.strip()) for p in text.split(",")))


def parse_morphism_text(text: str, doctrine: Doctrine) -> TheoryMorphism:
    """"src -> tgt : t1; t2" with v1..vn the source context variables."""
    head, _, body = text.partition(":")
    src_text, arrow, tgt_text = head.partition("->")
    if not arrow or not body.strip():
        raise ParseError("expected 'src -> tgt : term;term'")
    src = parse_object_text(src_text, doctrine)
    tgt = parse_object_text(tgt_text, doctrine)
    ctx = src.context()
    terms = [
        parse_term_text(part, ctx, doctrine) for part in body.split(";") if part.strip()
    ]
    return make_morphism(doctrine, src, tgt, terms)


# -- diagram JSON ---------------------------------------------------------


def diagram_to_data(X: DiagramOnTruncation) -> dict:
    return diagram_to_json(X)


def _once(seen: dict, key, where: str, what: str):
    """Record that the entry at `where` (its JSON path) gives `key`; a
    second entry for one key, an identical one too, is a `ParseError`
    naming both entries."""
    first = seen.setdefault(key, where)
    if first != where:
        raise ParseError(f"{first} and {where} both give {what}")


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(value, kind: type, path: str):
    """`value`, found at JSON path `path`, if it is of `kind`; otherwise
    a `ParseError` naming the path."""
    if type(value) is not kind:
        raise ParseError(f"{path}: expected {_JSON_KINDS[kind]}, found {_JSON_KINDS[type(value)]}")
    return value


def _field(obj, key: str, where: str, kind: type):
    """The field `key` of the JSON object `obj` found at path `where`
    ("" at the top level), which must be of `kind`; a missing or
    mistyped field is a `ParseError` naming its path."""
    _expect(obj, dict, where or "the top level")
    path = f"{where}.{key}" if where else key
    if key not in obj:
        raise ParseError(f"{path}: missing field")
    return _expect(obj[key], kind, path)


_COMPOUND = {list, dict}


def _scalars(items, path: str):
    """`items`, the JSON array or object found at path `path`, if none
    of its values is an array or an object: a diagram element or image
    is a JSON scalar.  A compound value is a `ParseError` naming its
    path."""
    is_object = type(items) is dict
    if not _COMPOUND.isdisjoint(map(type, items.values() if is_object else items)):
        key, value = next((k, v) for k, v in (items.items() if is_object else enumerate(items))
                          if type(v) in _COMPOUND)
        raise ParseError(f"{path}[{key!r}]: expected a scalar, found {_JSON_KINDS[type(value)]}")
    return items


def _bound(data, key: str) -> int:
    """The bound `key` of the diagram JSON object `data`; a negative
    one is a `ParseError` naming its path."""
    value = _field(data, key, "", int)
    if value < 0:
        raise ParseError(f"{key}: bound must be >= 0, got {value}")
    return value


def diagram_from_data(data: dict, doctrine: Doctrine) -> DiagramOnTruncation:
    values, seen = {}, {}
    for i, entry in enumerate(_field(data, "values", "", list)):
        where = f"values[{i}]"
        obj = object_from_json(doctrine, _field(entry, "object", where, list))
        _once(seen, obj, where, f"object {obj}")
        values[obj] = tuple(_scalars(_field(entry, "elements", where, list), f"{where}.elements"))
    arrows, seen = {}, {}
    for i, entry in enumerate(_field(data, "arrows", "", list)):
        where = f"arrows[{i}]"
        src = object_from_json(doctrine, _field(entry, "source", where, list))
        tgt = object_from_json(doctrine, _field(entry, "target", where, list))
        ctx = src.context()
        terms = [parse_term_text(_expect(t, str, f"{where}.terms[{j}]"), ctx, doctrine)
                 for j, t in enumerate(_field(entry, "terms", where, list))]
        m = make_morphism(doctrine, src, tgt, terms)
        _once(seen, m, where, f"morphism {m}")
        arrows[m] = dict(_scalars(_field(entry, "map", where, dict), f"{where}.map"))
    return DiagramOnTruncation(doctrine, _bound(data, "object_bound"), _bound(data, "term_bound"),
                               values, arrows)


def simplicial_to_data(SD: SimplicialDiagram) -> dict:
    """The JSON of a simplicial diagram.  One `printed` memo serves the
    whole report (`element_key`): every level's `diagram_to_json` and
    every face and degeneracy table read each element's text from it,
    so each distinct element is printed once."""
    printed: dict = {}

    def tables(maps):
        out = []
        for (n, i), per_obj in sorted(maps.items()):
            out.append({
                "level": n,
                "index": i,
                "maps": {obj.key(): table_to_json(t, printed) for obj, t in per_obj.items()},
            })
        return out

    return {
        "dim_cap": SD.cap,
        "levels": [diagram_to_json(L, printed) for L in SD.levels],
        "faces": tables(SD.faces),
        "degeneracies": tables(SD.degeneracies),
    }


def simplicial_from_data(data: dict, doctrine: Doctrine) -> SimplicialDiagram:
    cap = _field(data, "dim_cap", "", int)
    levels = []
    for n, level in enumerate(_field(data, "levels", "", list)):
        try:
            levels.append(diagram_from_data(level, doctrine))
        except ParseError as err:
            raise ParseError(f"levels[{n}]: {err}") from None

    def read(field):
        out, seen = {}, {}
        for i, entry in enumerate(_field(data, field, "", list)):
            where = f"{field}[{i}]"
            per_obj, objs = {}, {}
            for key, table in _field(entry, "maps", where, dict).items():
                obj = parse_object_text(key, doctrine)
                path = f"{where}.maps[{key!r}]"
                _once(objs, obj, path, f"object {obj}")
                per_obj[obj] = dict(_scalars(_expect(table, dict, path), path))
            n, k = _field(entry, "level", where, int), _field(entry, "index", where, int)
            _once(seen, (n, k), where, f"level {n}, index {k}")
            out[(n, k)] = per_obj
        return out

    return SimplicialDiagram(doctrine, cap, levels, read("faces"), read("degeneracies"))


