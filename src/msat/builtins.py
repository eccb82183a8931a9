"""Built-in doctrines with exact normal-form engines.

All presentations use the standard axiom lists; the operad doctrines
generate their composition symbols and equation instances up to the
configured level cap.
"""

from __future__ import annotations

import itertools

from .engines import (
    GroupActionEngine,
    OperadEngine,
    PathEngine,
    RingModuleEngine,
    TrivialEngine,
    WordEngine,
    bounded_compositions,
)
from .errors import InvalidParameter, UnknownSymbol
from .signature import App, Context, Doctrine, Equation, OpSymbol, Sort, Var

# operad equation instances are only generated while the total variable
# count stays below this; larger caps keep a truncated (still sound) list
_OPERAD_EQ_VAR_LIMIT = 7


def trivial_doctrine() -> Doctrine:
    s = Sort("el")
    return Doctrine("trivial", (s,), (), (), TrivialEngine())


def monoid_doctrine() -> Doctrine:
    m = Sort("m")
    mul = OpSymbol("mul", (m, m), m)
    e = OpSymbol("e", (), m)
    x, y, z = Var("x", m), Var("y", m), Var("z", m)
    ctx3 = Context((x, y, z))
    ctx1 = Context((x,))
    eqs = (
        Equation(ctx3, App(mul, (App(mul, (x, y)), z)), App(mul, (x, App(mul, (y, z)))), "assoc"),
        Equation(ctx1, App(mul, (App(e), x)), x, "unit_l"),
        Equation(ctx1, App(mul, (x, App(e))), x, "unit_r"),
    )
    return Doctrine("monoid", (m,), (mul, e), eqs, WordEngine(m, mul, e))


def group_doctrine() -> Doctrine:
    g = Sort("G")
    mul = OpSymbol("mul", (g, g), g)
    inv = OpSymbol("inv", (g,), g)
    e = OpSymbol("e", (), g)
    x, y, z = Var("x", g), Var("y", g), Var("z", g)
    ctx3 = Context((x, y, z))
    ctx1 = Context((x,))
    eqs = (
        Equation(ctx3, App(mul, (App(mul, (x, y)), z)), App(mul, (x, App(mul, (y, z)))), "assoc"),
        Equation(ctx1, App(mul, (App(e), x)), x, "unit_l"),
        Equation(ctx1, App(mul, (x, App(e))), x, "unit_r"),
        Equation(ctx1, App(mul, (App(inv, (x,)), x)), App(e), "inv_l"),
        Equation(ctx1, App(mul, (x, App(inv, (x,)))), App(e), "inv_r"),
    )
    return Doctrine("group", (g,), (mul, inv, e), eqs, WordEngine(g, mul, e, inv))


def group_action_doctrine() -> Doctrine:
    g, xs = Sort("G"), Sort("X")
    mul = OpSymbol("mul", (g, g), g)
    inv = OpSymbol("inv", (g,), g)
    e = OpSymbol("e", (), g)
    act = OpSymbol("act", (g, xs), xs)
    a, b, c = Var("a", g), Var("b", g), Var("c", g)
    s = Var("s", xs)
    eqs = (
        Equation(
            Context((a, b, c)),
            App(mul, (App(mul, (a, b)), c)),
            App(mul, (a, App(mul, (b, c)))),
            "assoc",
        ),
        Equation(Context((a,)), App(mul, (App(e), a)), a, "unit_l"),
        Equation(Context((a,)), App(mul, (a, App(e))), a, "unit_r"),
        Equation(Context((a,)), App(mul, (App(inv, (a,)), a)), App(e), "inv_l"),
        Equation(Context((a,)), App(mul, (a, App(inv, (a,)))), App(e), "inv_r"),
        Equation(
            Context((a, b, s)),
            App(act, (App(mul, (a, b)), s)),
            App(act, (a, App(act, (b, s)))),
            "act_assoc",
        ),
        Equation(Context((s,)), App(act, (App(e), s)), s, "act_unit"),
    )
    words = WordEngine(g, mul, e, inv)
    return Doctrine(
        "group-action", (g, xs), (mul, inv, e, act), eqs, GroupActionEngine(words, xs, act)
    )


def ring_module_doctrine() -> Doctrine:
    r, m = Sort("R"), Sort("M")
    add = OpSymbol("add", (r, r), r)
    mul = OpSymbol("mul", (r, r), r)
    neg = OpSymbol("neg", (r,), r)
    zero = OpSymbol("zero", (), r)
    one = OpSymbol("one", (), r)
    madd = OpSymbol("madd", (m, m), m)
    mneg = OpSymbol("mneg", (m,), m)
    mzero = OpSymbol("mzero", (), m)
    smul = OpSymbol("smul", (r, m), m)
    x, y, z = Var("x", r), Var("y", r), Var("z", r)
    u, v = Var("u", m), Var("v", m)
    c3, c2, c1 = Context((x, y, z)), Context((x, y)), Context((x,))

    def eq(ctx, lhs, rhs, name):
        return Equation(ctx, lhs, rhs, name)

    eqs = (
        eq(c3, App(add, (App(add, (x, y)), z)), App(add, (x, App(add, (y, z)))), "add_assoc"),
        eq(c2, App(add, (x, y)), App(add, (y, x)), "add_comm"),
        eq(c1, App(add, (x, App(zero))), x, "add_zero"),
        eq(c1, App(add, (x, App(neg, (x,)))), App(zero), "add_neg"),
        eq(c3, App(mul, (App(mul, (x, y)), z)), App(mul, (x, App(mul, (y, z)))), "mul_assoc"),
        eq(c2, App(mul, (x, y)), App(mul, (y, x)), "mul_comm"),
        eq(c1, App(mul, (x, App(one))), x, "mul_one"),
        eq(
            c3,
            App(mul, (x, App(add, (y, z)))),
            App(add, (App(mul, (x, y)), App(mul, (x, z)))),
            "distrib",
        ),
        eq(
            Context((u, v, Var("w", m))),
            App(madd, (App(madd, (u, v)), Var("w", m))),
            App(madd, (u, App(madd, (v, Var("w", m))))),
            "madd_assoc",
        ),
        eq(Context((u, v)), App(madd, (u, v)), App(madd, (v, u)), "madd_comm"),
        eq(Context((u,)), App(madd, (u, App(mzero))), u, "madd_zero"),
        eq(Context((u,)), App(madd, (u, App(mneg, (u,)))), App(mzero), "madd_neg"),
        eq(Context((u,)), App(smul, (App(one), u)), u, "smul_one"),
        eq(
            Context((x, y, u)),
            App(smul, (x, App(smul, (y, u)))),
            App(smul, (App(mul, (x, y)), u)),
            "smul_mul",
        ),
        eq(
            Context((x, y, u)),
            App(smul, (App(add, (x, y)), u)),
            App(madd, (App(smul, (x, u)), App(smul, (y, u)))),
            "smul_add_scalar",
        ),
        eq(
            Context((x, u, v)),
            App(smul, (x, App(madd, (u, v)))),
            App(madd, (App(smul, (x, u)), App(smul, (x, v)))),
            "smul_add_vector",
        ),
    )
    engine = RingModuleEngine(r, m, add, mul, neg, zero, one, madd, mneg, mzero, smul)
    return Doctrine(
        "ring-module", (r, m), (add, mul, neg, zero, one, madd, mneg, mzero, smul), eqs, engine
    )


# -- operads -----------------------------------------------------------


def _block_perm(sigma, js):
    """Permutation rearranging concatenated blocks of sizes js into the
    order js[sigma(1)-1], js[sigma(2)-1], ..."""
    offsets = [0]
    for j in js:
        offsets.append(offsets[-1] + j)
    out = []
    for i in sigma:
        out.extend(range(offsets[i - 1] + 1, offsets[i - 1] + js[i - 1] + 1))
    return tuple(out)


def _block_sum(taus):
    """Direct sum of permutations acting inside consecutive blocks."""
    out = []
    offset = 0
    for tau in taus:
        out.extend(offset + t for t in tau)
        offset += len(tau)
    return tuple(out)


def operad_doctrine(level_cap: int, symmetric: bool) -> Doctrine:
    if level_cap < 0:
        raise InvalidParameter("operad level cap must be >= 0")
    sorts = {lv: Sort(f"P{lv}", level=lv) for lv in range(level_cap + 1)}
    unit = OpSymbol("unit", (), sorts[1]) if level_cap >= 1 else None
    if unit is None:
        raise InvalidParameter("operad doctrines need level cap >= 1 for the unit")

    gammas: dict[tuple, OpSymbol] = {}
    for k in range(1, level_cap + 1):
        for js in bounded_compositions(level_cap, k):
            name = f"g{k}__" + "_".join(str(j) for j in js)
            dom = (sorts[k], *(sorts[j] for j in js))
            gammas[(k, js)] = OpSymbol(name, dom, sorts[sum(js)])

    perms: dict[tuple, OpSymbol] = {}
    if symmetric:
        for k in range(2, level_cap + 1):
            for sigma in itertools.permutations(range(1, k + 1)):
                if sigma == tuple(range(1, k + 1)):
                    continue
                name = f"p{k}_" + "".join(str(d) for d in sigma)
                perms[(k, sigma)] = OpSymbol(name, (sorts[k],), sorts[k])

    def wrap_perm(term, n, tau):
        if n < 2 or tau == tuple(range(1, n + 1)):
            return term
        return App(perms[(n, tau)], (term,))

    eqs: list[Equation] = []
    # unit laws
    for j in range(level_cap + 1):
        q = Var("q", sorts[j])
        eqs.append(
            Equation(Context((q,)), App(gammas[(1, (j,))], (App(unit), q)), q, f"unit_l_{j}")
        )
    for k in range(1, level_cap + 1):
        p = Var("p", sorts[k])
        eqs.append(
            Equation(
                Context((p,)),
                App(gammas[(k, (1,) * k)], (p, *(App(unit),) * k)),
                p,
                f"unit_r_{k}",
            )
        )
    # associativity instances
    for k in range(1, level_cap + 1):
        for js in bounded_compositions(level_cap, k):
            m = sum(js)
            if m == 0 or 1 + k + m > _OPERAD_EQ_VAR_LIMIT:
                continue
            for ls in bounded_compositions(level_cap, m):
                p = Var("p", sorts[k])
                qs = tuple(Var(f"q{i+1}", sorts[j]) for i, j in enumerate(js))
                rs = tuple(Var(f"r{t+1}", sorts[l]) for t, l in enumerate(ls))
                lhs = App(
                    gammas[(m, ls)], (App(gammas[(k, js)], (p, *qs)), *rs)
                )
                inner = []
                blocks = []
                pos = 0
                for i, j in enumerate(js):
                    block = ls[pos : pos + j]
                    blocks.append(sum(block))
                    if j == 0:
                        inner.append(qs[i])
                    else:
                        inner.append(App(gammas[(j, block)], (qs[i], *rs[pos : pos + j])))
                    pos += j
                rhs = App(gammas[(k, tuple(blocks))], (p, *inner))
                eqs.append(
                    Equation(
                        Context((p, *qs, *rs)),
                        lhs,
                        rhs,
                        f"assoc_{k}_{'_'.join(map(str, js))}__{'_'.join(map(str, ls))}",
                    )
                )
    if symmetric:
        # permutation action
        for k in range(2, level_cap + 1):
            idk = tuple(range(1, k + 1))
            p = Var("p", sorts[k])
            for sigma in itertools.permutations(idk):
                for tau in itertools.permutations(idk):
                    if sigma == idk or tau == idk:
                        continue
                    comp = tuple(sigma[tau[i - 1] - 1] for i in idk)
                    lhs = App(perms[(k, sigma)], (App(perms[(k, tau)], (p,)),))
                    rhs = wrap_perm(p, k, comp)
                    eqs.append(Equation(Context((p,)), lhs, rhs, f"perm_act_{k}"))
        # equivariance in the outer slot
        for k in range(2, level_cap + 1):
            idk = tuple(range(1, k + 1))
            for sigma in itertools.permutations(idk):
                if sigma == idk:
                    continue
                for js in bounded_compositions(level_cap, k):
                    m = sum(js)
                    if 1 + k > _OPERAD_EQ_VAR_LIMIT or 1 + k + m > _OPERAD_EQ_VAR_LIMIT:
                        continue
                    p = Var("p", sorts[k])
                    qs = tuple(Var(f"q{i+1}", sorts[j]) for i, j in enumerate(js))
                    lhs = App(gammas[(k, js)], (App(perms[(k, sigma)], (p,)), *qs))
                    js_perm = tuple(js[sigma[i] - 1] for i in range(k))
                    rhs = wrap_perm(
                        App(gammas[(k, js_perm)], (p, *(qs[sigma[i] - 1] for i in range(k)))),
                        m,
                        _block_perm(sigma, js),
                    )
                    eqs.append(
                        Equation(
                            Context((p, *qs)), lhs, rhs, f"equiv_outer_{k}_{''.join(map(str, sigma))}"
                        )
                    )
        # equivariance in one inner slot
        for k in range(1, level_cap + 1):
            for js in bounded_compositions(level_cap, k):
                m = sum(js)
                if 1 + k + m > _OPERAD_EQ_VAR_LIMIT:
                    continue
                for i, j in enumerate(js):
                    if j < 2:
                        continue
                    idj = tuple(range(1, j + 1))
                    for tau in itertools.permutations(idj):
                        if tau == idj:
                            continue
                        p = Var("p", sorts[k])
                        qs = tuple(Var(f"q{t+1}", sorts[jj]) for t, jj in enumerate(js))
                        args = list(qs)
                        args[i] = App(perms[(j, tau)], (qs[i],))
                        lhs = App(gammas[(k, js)], (p, *args))
                        taus = [tuple(range(1, jj + 1)) for jj in js]
                        taus[i] = tau
                        rhs = wrap_perm(App(gammas[(k, js)], (p, *qs)), m, _block_sum(taus))
                        eqs.append(
                            Equation(Context((p, *qs)), lhs, rhs, f"equiv_inner_{k}_{i+1}")
                        )

    engine = OperadEngine(symmetric, level_cap, unit, gammas, perms)
    kind = "operad-symmetric" if symmetric else "operad-nonsigma"
    doc = Doctrine(
        f"{kind}-{level_cap}",
        tuple(sorts[lv] for lv in range(level_cap + 1)),
        (unit, *gammas.values(), *perms.values()),
        tuple(eqs),
        engine,
        meta={"kind": kind, "level_cap": level_cap},
    )
    return doc


def ocat_doctrine(objects, edges=()) -> Doctrine:
    """Theory of categories with the fixed object set; sorted by ordered
    pairs of objects.  `edges` only names default generators (metadata)."""
    objects = tuple(objects)
    if not objects:
        raise InvalidParameter("ocat needs a nonempty object set")
    if len(set(objects)) != len(objects):
        raise InvalidParameter("duplicate object names")
    pairs = {(x, y): Sort(f"h_{x}_{y}") for x in objects for y in objects}
    pair_of_sort = {s: xy for xy, s in pairs.items()}
    comp_ops = {
        (x, y, z): OpSymbol(f"comp_{x}_{y}_{z}", (pairs[(x, y)], pairs[(y, z)]), pairs[(x, z)])
        for x in objects
        for y in objects
        for z in objects
    }
    id_ops = {x: OpSymbol(f"id_{x}", (), pairs[(x, x)]) for x in objects}
    eqs = []
    for x in objects:
        for y in objects:
            f = Var("f", pairs[(x, y)])
            eqs.append(
                Equation(
                    Context((f,)),
                    App(comp_ops[(x, x, y)], (App(id_ops[x]), f)),
                    f,
                    f"unit_l_{x}_{y}",
                )
            )
            eqs.append(
                Equation(
                    Context((f,)),
                    App(comp_ops[(x, y, y)], (f, App(id_ops[y]))),
                    f,
                    f"unit_r_{x}_{y}",
                )
            )
            for z in objects:
                for w in objects:
                    f = Var("f", pairs[(x, y)])
                    g = Var("g", pairs[(y, z)])
                    h = Var("h", pairs[(z, w)])
                    eqs.append(
                        Equation(
                            Context((f, g, h)),
                            App(comp_ops[(x, z, w)], (App(comp_ops[(x, y, z)], (f, g)), h)),
                            App(comp_ops[(x, y, w)], (f, App(comp_ops[(y, z, w)], (g, h)))),
                            f"assoc_{x}{y}{z}{w}",
                        )
                    )
    edges = tuple((str(n), str(s), str(t)) for n, s, t in edges)
    for n, s, t in edges:
        if s not in objects or t not in objects:
            raise InvalidParameter(f"edge {n} endpoints not in object set")
    engine = PathEngine(pair_of_sort, comp_ops, id_ops)
    return Doctrine(
        "ocat-" + "-".join(objects),
        tuple(pairs[(x, y)] for x in objects for y in objects),
        (*id_ops.values(), *comp_ops.values()),
        tuple(eqs),
        engine,
        meta={"kind": "ocat", "objects": objects, "edges": edges},
    )


def ocat_context(doctrine: Doctrine) -> Context:
    """Context of the doctrine's named generating edges."""
    pairs = {(x, y): doctrine.sort(f"h_{x}_{y}") for x in doctrine.meta["objects"] for y in doctrine.meta["objects"]}
    return Context(tuple(Var(n, pairs[(s, t)]) for n, s, t in doctrine.meta["edges"]))


_BUILTIN_IDS = (
    "trivial",
    "monoid",
    "group",
    "group-action",
    "ring-module",
    "operad-nonsigma",
    "operad-symmetric",
    "ocat",
)


def builtin_doctrine(ident: str, *, level_cap: int | None = None, objects=None, edges=()) -> Doctrine:
    if ident == "trivial":
        return trivial_doctrine()
    if ident == "monoid":
        return monoid_doctrine()
    if ident == "group":
        return group_doctrine()
    if ident == "group-action":
        return group_action_doctrine()
    if ident == "ring-module":
        return ring_module_doctrine()
    if ident == "operad-nonsigma":
        return operad_doctrine(3 if level_cap is None else level_cap, symmetric=False)
    if ident == "operad-symmetric":
        return operad_doctrine(3 if level_cap is None else level_cap, symmetric=True)
    if ident == "ocat":
        if objects is None:
            raise InvalidParameter("ocat requires an object set")
        return ocat_doctrine(objects, edges)
    raise UnknownSymbol(f"unknown builtin doctrine {ident!r}; known: {_BUILTIN_IDS}")


def resolve_builtin(spec: str) -> Doctrine:
    """Parse a CLI-style builtin spec: `builtin:NAME[:ARG]`.

    Operad arg is the level cap; ocat arg is `x,y[;edge:src>tgt...]`.
    """
    parts = spec.split(":", 2)
    if parts[0] != "builtin" or len(parts) < 2:
        raise InvalidParameter(f"not a builtin doctrine spec: {spec!r}")
    name = parts[1]
    arg = parts[2] if len(parts) > 2 else None
    if name in ("operad-nonsigma", "operad-symmetric"):
        try:
            cap = int(arg) if arg else None
        except ValueError:
            raise InvalidParameter(
                f"bad operad spec {spec!r}; expected builtin:NAME[:CAP] with an integer "
                "level cap"
            ) from None
        return builtin_doctrine(name, level_cap=cap)
    if name == "ocat":
        if not arg:
            raise InvalidParameter("ocat spec needs an object list, e.g. builtin:ocat:x,y")
        chunks = arg.split(";")
        objects = tuple(o.strip() for o in chunks[0].split(",") if o.strip())
        edges = []
        for chunk in chunks[1:]:
            ename, _, arrow = chunk.partition(":")
            src, _, tgt = arrow.partition(">")
            if not (ename and src and tgt):
                raise InvalidParameter(f"bad edge spec {chunk!r}; expected name:src>tgt")
            edges.append((ename.strip(), src.strip(), tgt.strip()))
        return builtin_doctrine("ocat", objects=objects, edges=tuple(edges))
    if arg is not None:
        raise InvalidParameter(f"builtin {name!r} takes no argument")
    return builtin_doctrine(name)
