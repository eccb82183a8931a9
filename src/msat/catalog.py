"""A named catalog of finite models for the built-in doctrines, plus
deliberately faulted variants for negative tests."""

from __future__ import annotations

import itertools

from .builtins import builtin_doctrine
from .models import FiniteAlgebra, check_equations
from .signature import Doctrine


def _table(carriers, domain_sorts, fn):
    out = {}
    for args in itertools.product(*(carriers[s] for s in domain_sorts)):
        out[args] = fn(*args)
    return out


def _tables(doctrine, carriers, dispatch):
    tables = {}
    for op in doctrine.ops:
        fn = dispatch(op)
        tables[op.name] = _table(carriers, op.domain, fn)
    return tables


def cyclic_group(doctrine: Doctrine, n: int, name=None) -> FiniteAlgebra:
    g = doctrine.sort("G")
    carriers = {g: tuple(range(n))}
    tables = {
        "mul": _table(carriers, (g, g), lambda a, b: (a + b) % n),
        "inv": _table(carriers, (g,), lambda a: (-a) % n),
        "e": {(): 0},
    }
    return FiniteAlgebra(doctrine, carriers, tables, name or f"Z{n}")


def symmetric_group_3(doctrine: Doctrine) -> FiniteAlgebra:
    g = doctrine.sort("G")
    elems = tuple(itertools.permutations(range(3)))
    carriers = {g: elems}

    def mul(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inv(a):
        out = [0, 0, 0]
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    tables = {
        "mul": _table(carriers, (g, g), mul),
        "inv": _table(carriers, (g,), inv),
        "e": {(): (0, 1, 2)},
    }
    return FiniteAlgebra(doctrine, carriers, tables, "S3")


# monoid kind -> (carrier, multiplication, unit), in catalog order
_MONOIDS = {
    "trivial": ((0,), lambda a, b: 0, 0),
    "max2": ((0, 1), max, 0),
    "z2": ((0, 1), lambda a, b: (a + b) % 2, 0),
    "z3": ((0, 1, 2), lambda a, b: (a + b) % 3, 0),
    "max3": ((0, 1, 2), max, 0),
}


def monoid_model(doctrine: Doctrine, kind: str) -> FiniteAlgebra:
    if kind not in _MONOIDS:
        raise ValueError(kind)
    elements, fn, unit = _MONOIDS[kind]
    m = doctrine.sort("m")
    carriers = {m: elements}
    tables = {"mul": _table(carriers, (m, m), fn), "e": {(): unit}}
    return FiniteAlgebra(doctrine, carriers, tables, f"monoid-{kind}")


def action_model(doctrine: Doctrine, kind: str) -> FiniteAlgebra:
    g, x = doctrine.sort("G"), doctrine.sort("X")
    if kind == "z2-swap":
        carriers = {g: (0, 1), x: ("p", "q")}
        act = lambda a, s: s if a == 0 else ("q" if s == "p" else "p")
        n = 2
    elif kind == "z2-trivial":
        carriers = {g: (0, 1), x: ("p", "q")}
        act = lambda a, s: s
        n = 2
    elif kind == "z3-cycle":
        carriers = {g: (0, 1, 2), x: (0, 1, 2)}
        act = lambda a, s: (a + s) % 3
        n = 3
    elif kind == "point":
        carriers = {g: (0,), x: ("p",)}
        act = lambda a, s: s
        n = 1
    else:
        raise ValueError(kind)
    tables = {
        "mul": _table(carriers, (g, g), lambda a, b: (a + b) % n),
        "inv": _table(carriers, (g,), lambda a: (-a) % n),
        "e": {(): 0},
        "act": _table(carriers, (g, x), act),
    }
    return FiniteAlgebra(doctrine, carriers, tables, f"action-{kind}")


def ring_module_model(doctrine: Doctrine, n: int, trivial_module=False) -> FiniteAlgebra:
    r, m = doctrine.sort("R"), doctrine.sort("M")
    carriers = {r: tuple(range(n)), m: ((0,) if trivial_module else tuple(range(n)))}
    mod = len(carriers[m])
    tables = {
        "add": _table(carriers, (r, r), lambda a, b: (a + b) % n),
        "mul": _table(carriers, (r, r), lambda a, b: (a * b) % n),
        "neg": _table(carriers, (r,), lambda a: (-a) % n),
        "zero": {(): 0},
        "one": {(): 1 % n},
        "madd": _table(carriers, (m, m), lambda a, b: (a + b) % mod),
        "mneg": _table(carriers, (m,), lambda a: (-a) % mod),
        "mzero": {(): 0},
        "smul": _table(carriers, (r, m), lambda a, b: (a * b) % mod),
    }
    suffix = "-triv" if trivial_module else ""
    return FiniteAlgebra(doctrine, carriers, tables, f"Z{n}-mod{suffix}")


def endomorphism_operad(doctrine: Doctrine, base=(0, 1)) -> FiniteAlgebra:
    """P(k) = all functions base^k -> base, encoded as output tuples over
    lexicographically ordered inputs.  Composition is substitution on
    blocks; permutations act by precomposing inputs.  Exercises every
    equivariance convention with a genuinely noncommutative model, so
    keep the level cap small (carriers grow doubly exponentially)."""
    levels = sorted(s.level for s in doctrine.sorts)
    inputs = {k: list(itertools.product(base, repeat=k)) for k in levels}
    carriers = {
        doctrine.sort(f"P{k}"): tuple(
            itertools.product(base, repeat=len(inputs[k]))
        )
        for k in levels
    }

    def as_fn(k, p):
        table = dict(zip(inputs[k], p))
        return lambda xs: table[tuple(xs)]

    def dispatch(op):
        if op.name == "unit":
            return lambda: tuple(x for (x,) in inputs[1])
        if op.name.startswith("g"):
            head, *js = op.name[1:].split("__")[0], *op.name.split("__")[1].split("_")
            k = int(head)
            js = [int(j) for j in js]

            def gamma(p, *qs):
                pf = as_fn(k, p)
                qfs = [as_fn(j, q) for j, q in zip(js, qs)]
                m = sum(js)
                out = []
                for xs in inputs[m]:
                    vals = []
                    pos = 0
                    for j, qf in zip(js, qfs):
                        vals.append(qf(xs[pos:pos + j]))
                        pos += j
                    out.append(pf(vals))
                return tuple(out)

            return gamma
        # permutation symbols: p |-> p . sigma, (p.sigma)(x) = p(x o sigma)
        k = int(op.name[1:].split("_")[0])
        sigma = tuple(int(d) for d in op.name.split("_")[1])

        def perm(p):
            pf = as_fn(k, p)
            return tuple(pf([xs[s - 1] for s in sigma]) for xs in inputs[k])

        return perm

    return FiniteAlgebra(doctrine, carriers, _tables(doctrine, carriers, dispatch),
                         "operad-endo")


def operad_model(doctrine: Doctrine, kind: str) -> FiniteAlgebra:
    if kind == "one-point":
        carriers = {s: ("*",) for s in doctrine.sorts}

        def dispatch(op):
            return lambda *args: "*"

    elif kind == "endo":
        return endomorphism_operad(doctrine)

    elif kind == "and":
        carriers = {s: (0, 1) for s in doctrine.sorts}

        def dispatch(op):
            if op.name == "unit":
                return lambda: 1
            if op.name.startswith("g"):
                return lambda p, *qs: min((p, *qs)) if qs else p
            return lambda p: p  # permutations act trivially

    else:
        raise ValueError(kind)
    return FiniteAlgebra(doctrine, carriers, _tables(doctrine, carriers, dispatch),
                         f"operad-{kind}")


def ocat_model(doctrine: Doctrine, kind: str) -> FiniteAlgebra:
    objects = doctrine.meta["objects"]
    pairs = {(x, y): doctrine.sort(f"h_{x}_{y}") for x in objects for y in objects}
    if kind == "codiscrete":
        carriers = {s: ("*",) for s in pairs.values()}

        def dispatch(op):
            if op.name.startswith("id_"):
                return lambda: "*"
            return lambda f, g: "*"

    elif kind == "discrete":
        carriers = {pairs[(x, y)]: (("id",) if x == y else ()) for x in objects for y in objects}

        def dispatch(op):
            if op.name.startswith("id_"):
                return lambda: "id"
            return lambda f, g: "id"

    elif kind == "loop-z2":
        x0 = objects[0]
        carriers = {}
        for (x, y), s in pairs.items():
            if x == y == x0:
                carriers[s] = (0, 1)
            elif x == y:
                carriers[s] = ("id",)
            else:
                carriers[s] = ()

        def dispatch(op):
            if op.name.startswith("id_"):
                obj = op.name[3:]
                return (lambda: 0) if obj == x0 else (lambda: "id")

            def comp(f, g):
                if isinstance(f, int) and isinstance(g, int):
                    return (f + g) % 2
                return f if g == "id" else g

            return comp

    elif kind == "walking-arrow":
        if len(objects) < 2:
            raise ValueError("walking-arrow needs two objects")
        x0, y0 = objects[0], objects[1]
        carriers = {}
        for (x, y), s in pairs.items():
            if x == y:
                carriers[s] = ("id",)
            elif (x, y) == (x0, y0):
                carriers[s] = ("u",)
            else:
                carriers[s] = ()

        def dispatch(op):
            if op.name.startswith("id_"):
                return lambda: "id"
            return lambda f, g: f if g == "id" else (g if f == "id" else "u")

    else:
        raise ValueError(kind)
    return FiniteAlgebra(doctrine, carriers, _tables(doctrine, carriers, dispatch),
                         f"ocat-{kind}")


def trivial_model(doctrine: Doctrine, *sizes: int) -> FiniteAlgebra:
    """The `sorts_only` doctrine's model with carrier range(sizes[i]) at
    sort i, named `set{n}` for one sort and `set{n1}x{n2}...` for more."""
    carriers = {s: tuple(range(n)) for s, n in zip(doctrine.sorts, sizes, strict=True)}
    return FiniteAlgebra(doctrine, carriers, {}, "set" + "x".join(map(str, sizes)))


def models_for(doctrine: Doctrine, max_size: int = 3) -> list[FiniteAlgebra]:
    """Catalog models of the given doctrine with carriers <= max_size: for
    a `sorts_only` doctrine, all max_size ** len(sorts) set models."""
    kind = doctrine.meta.get("kind", doctrine.name)
    out: list[FiniteAlgebra] = []
    if doctrine.sorts_only:
        sizes = itertools.product(range(1, max_size + 1), repeat=len(doctrine.sorts))
        out = [trivial_model(doctrine, *ns) for ns in sizes]
    elif kind == "monoid":
        out = [monoid_model(doctrine, k) for k in _MONOIDS]
    elif kind == "group":
        out = [cyclic_group(doctrine, n) for n in (1, 2, 3, 4, 6) if n <= max(max_size, 1)]
        if max_size >= 6:
            out.append(symmetric_group_3(doctrine))
    elif kind == "group-action":
        out = [action_model(doctrine, k) for k in ("point", "z2-swap", "z2-trivial", "z3-cycle")]
    elif kind == "ring-module":
        out = [
            ring_module_model(doctrine, 2),
            ring_module_model(doctrine, 3),
            ring_module_model(doctrine, 2, trivial_module=True),
        ]
    elif kind in ("operad-nonsigma", "operad-symmetric"):
        out = [operad_model(doctrine, "one-point"), operad_model(doctrine, "and")]
    elif kind == "ocat":
        kinds = ["codiscrete", "discrete", "loop-z2"]
        if len(doctrine.meta["objects"]) >= 2:
            kinds.append("walking-arrow")
        out = [ocat_model(doctrine, k) for k in kinds]
    return [a for a in out if all(len(c) <= max_size for c in a.carriers.values())]


def valid_catalog() -> list[FiniteAlgebra]:
    """At least ten valid models spanning the built-in doctrines."""
    out = []
    out += models_for(builtin_doctrine("trivial"))
    out += models_for(builtin_doctrine("monoid"))
    out += models_for(builtin_doctrine("group"))
    out += models_for(builtin_doctrine("group-action"))
    out += models_for(builtin_doctrine("ring-module"))
    out += models_for(builtin_doctrine("operad-nonsigma", level_cap=2))
    out += models_for(builtin_doctrine("ocat", objects=("x", "y"), edges=(("f", "x", "x"),)))
    return out


def faulted_catalog() -> list[tuple[FiniteAlgebra, str]]:
    """Models with one table entry broken; all violate their equations."""
    out = []

    group = builtin_doctrine("group")
    z2 = cyclic_group(group, 2, "Z2-bad-inv")
    z2.tables["inv"][(1,)] = 0
    out.append((z2, "inverse of 1 redirected to 0"))

    z3 = cyclic_group(group, 3, "Z3-bad-mul")
    z3.tables["mul"][(1, 2)] = 1
    out.append((z3, "1*2 redirected to 1"))

    monoid = builtin_doctrine("monoid")
    mx = monoid_model(monoid, "max2")
    mx.name = "max2-bad-unit"
    mx.tables["e"][()] = 1
    out.append((mx, "unit redirected to the top element"))

    act_doc = builtin_doctrine("group-action")
    sw = action_model(act_doc, "z2-swap")
    sw.name = "swap-bad-act"
    sw.tables["act"][(1, "q")] = "q"
    out.append((sw, "action of the generator made non-invertible"))

    rm_doc = builtin_doctrine("ring-module")
    rm = ring_module_model(rm_doc, 2)
    rm.name = "Z2-bad-add"
    rm.tables["add"][(1, 1)] = 1
    out.append((rm, "1+1 redirected to 1"))

    op_doc = builtin_doctrine("operad-nonsigma", level_cap=2)
    bad = operad_model(op_doc, "and")
    bad.name = "and-bad-unit"
    bad.tables["unit"][()] = 0
    out.append((bad, "operad unit redirected to absorbing element"))

    return out


def assert_catalog_valid():
    for alg in valid_catalog():
        bad = check_equations(alg)
        if bad:
            raise AssertionError(f"catalog model {alg.name} violates {bad[0][0].name}")
