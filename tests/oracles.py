"""Independent oracles used by the test suite.

These deliberately avoid the library's enumeration/pushout machinery:
counts come from brute-force string filtering, the Catalan recurrence,
generic set-level pushouts, and breadth-first component search.
"""

import itertools

from msat.engines import (
    GroupActionEngine,
    OperadEngine,
    PathEngine,
    RingModuleEngine,
    WordEngine,
    _mono_mul,
    _poly_mul,
)
from msat.errors import ElementNotInCarrier, UnboundVariable
from msat.signature import (
    Context,
    Var,
    enumerate_raw_terms,
    enumerate_terms,
    normalize,
    print_term,
    substitute,
)
from msat.theory_cat import (
    compose,
    generating_morphisms,
    hom_enumerate,
    identity,
    make_morphism,
    objects_up_to,
)


def count_reduced_strings(n_gens: int, max_len: int) -> int:
    """Reduced words in the free group on n_gens generators, counted by
    filtering all strings over the 2*n_gens letters."""
    alphabet = [(i, s) for i in range(n_gens) for s in (1, -1)]
    total = 0
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            if all(
                not (w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1])
                for i in range(length - 1)
            ):
                total += 1
    return total


def count_monoid_words(n_gens: int, max_len: int) -> int:
    return sum(n_gens ** k for k in range(max_len + 1))


def catalan(n: int) -> int:
    """Via the convolution recurrence for planar binary trees."""
    counts = {1: 1}

    def trees(leaves):
        if leaves not in counts:
            counts[leaves] = sum(
                trees(k) * trees(leaves - k) for k in range(1, leaves)
            )
        return counts[leaves]

    return trees(n + 1)


def pushout_classes(apex, left, right, x_elems, b_elems):
    """Set pushout X <- A -> B as classes of tagged elements.

    apex: iterable of A-elements; left/right: dicts A -> X / A -> B.
    Returns a list of frozensets partitioning {('x', x)} | {('b', b)}.
    """
    parent = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for x in x_elems:
        parent[("x", x)] = ("x", x)
    for b in b_elems:
        parent[("b", b)] = ("b", b)
    for a in apex:
        union(("x", left[a]), ("b", right[a]))
    groups = {}
    for k in parent:
        groups.setdefault(find(k), set()).add(k)
    return [frozenset(g) for g in groups.values()]


def bfs_component_count(vertices, edges) -> int:
    """Connected components from explicit vertex/edge lists."""
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    count = 0
    for v in vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
    return count


def trivial_homset(src_size: int, tgt_size: int) -> list[tuple]:
    """Morphisms between powers in the no-op single-sort theory: every
    map of target slots into source slots, as index tuples."""
    if tgt_size == 0:
        return [()]
    if src_size == 0:
        return []
    return list(itertools.product(range(1, src_size + 1), repeat=tgt_size))


def brute_force_homs(A, B) -> list[tuple]:
    """Homomorphisms A -> B of finite algebras by walking every family of
    carrier maps, prod_s |B_s|^|A_s| of them in product order, and keeping
    those that commute with every operation.  Each is returned in the shape
    of `Homomorphism.components`: (sort, sorted (element, image) pairs) per
    sort, sorts by name."""
    sorts = sorted(A.carriers, key=lambda s: s.name)
    spaces = []
    for s in sorts:
        dom, cod = A.carriers[s], B.carriers[s]
        spaces.append([dict(zip(dom, image)) for image in itertools.product(cod, repeat=len(dom))])
    out = []
    for family in itertools.product(*spaces):
        comp = dict(zip(sorts, family))
        if all(
            comp[op.codomain][A.tables[op.name][args]]
            == B.tables[op.name][tuple(comp[s][a] for s, a in zip(op.domain, args))]
            for op in A.doctrine.ops
            for args in itertools.product(*(A.carriers[s] for s in op.domain))
        ):
            out.append(tuple(
                (s, tuple(sorted(comp[s].items(), key=lambda p: str(p[0])))) for s in sorts
            ))
    return out


def compose_by_substitution(doctrine, g, f) -> tuple:
    """g after f on syntax: substitute f's terms for g's variables, then
    normalize each component.  Returns (substituted, normal forms)."""
    asg = {f"v{i+1}": t for i, t in enumerate(f.terms)}
    raw = tuple(substitute(t, asg) for t in g.terms)
    return raw, tuple(normalize(t, doctrine) for t in raw)


def reference_value_with_env(engine, term, env):
    """The value of `term` under an exact engine, each variable read
    from `env` (name -> value): one walk of the term, per op, instead of
    `Engine.bind` on the term's value.  The walk computes on expanded
    values (letter tuples, polynomial dicts, operad trees with labelled
    leaves, (ends, edges) paths) and folds the result back to the engines'
    documented value forms, written out here rather than taken from the
    engines: a lone variable is its `Var`, a polynomial or module
    element is the frozenset of its dict's items, and a lone operad
    generator with its leaves in order is its `Var`.  Every engine
    shares the variable case; each op case is written out by the
    operation's name, independently of the engine's generic elements
    and of `bind`."""
    expanded = {name: _expand(engine, v) for name, v in env.items()}
    return _collapse(engine, _walk_value(engine, term, expanded), term.sort)


def _expand(engine, value):
    if isinstance(engine, GroupActionEngine):
        if isinstance(value, Var) and value.sort is engine.x_sort:
            return ((), value)
        return _expand(engine.wordeng, value)
    if isinstance(engine, WordEngine):
        return ((value, 1),) if isinstance(value, Var) else value
    if isinstance(engine, RingModuleEngine):
        if isinstance(value, Var):
            return {((value, 1),): 1} if value.sort is engine.r_sort else {((), value): 1}
        return dict(value)
    if isinstance(engine, OperadEngine) and isinstance(value, Var):
        return (value, tuple(range(1, value.sort.level + 1)))
    if isinstance(engine, PathEngine) and isinstance(value, Var):
        return (engine.pair_of_sort[value.sort], (value,))
    return value


def _collapse(engine, value, sort):
    if isinstance(engine, GroupActionEngine):
        if sort is engine.x_sort:
            word, point = value
            return (word, point) if word else point
        return _collapse(engine.wordeng, value, sort)
    if isinstance(engine, WordEngine):
        return value[0][0] if len(value) == 1 and value[0][1] == 1 else value
    if isinstance(engine, RingModuleEngine):
        if len(value) == 1:
            ((key, c),) = value.items()
            if c == 1 and sort is engine.r_sort and len(key) == 1 and key[0][1] == 1:
                return key[0][0]
            if c == 1 and sort is not engine.r_sort and key[0] == ():
                return key[1]
        return frozenset(value.items())
    if isinstance(engine, OperadEngine):
        if isinstance(value, tuple) and value[1] == tuple(range(1, len(value[1]) + 1)):
            return value[0]
        return value
    if isinstance(engine, PathEngine):
        return value[1][0] if len(value[1]) == 1 else value
    return value


def _poly_add(p1, p2):
    out = dict(p1)
    for k, c in p2.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _relabel(tree, leaf):
    """An operad tree with each leaf label l replaced by the tree
    `leaf(l)`."""
    if isinstance(tree, int):
        return leaf(tree)
    gen, children = tree
    return (gen, tuple(_relabel(c, leaf) for c in children))


def _walk_value(engine, term, env):
    if isinstance(term, Var):
        return env[term.name]

    def walk(t, eng=engine):
        return _walk_value(eng, t, env)

    name, args = term.op.name, term.args
    if isinstance(engine, GroupActionEngine):
        if name != engine.act.name:
            return walk(term, engine.wordeng)
        word = walk(args[0], engine.wordeng)
        inner, point = walk(args[1])
        return (engine.wordeng._reduce(word + inner), point)
    if isinstance(engine, WordEngine):
        if name == engine.unit.name:
            return ()
        if name == engine.mul.name:
            return engine._reduce(walk(args[0]) + walk(args[1]))
        return tuple((v, -e) for v, e in reversed(walk(args[0])))
    if isinstance(engine, RingModuleEngine):
        if name in (engine.zero.name, engine.mzero.name):
            return {}
        if name == engine.one.name:
            return {(): 1}
        if name in (engine.add.name, engine.madd.name):
            return _poly_add(walk(args[0]), walk(args[1]))
        if name in (engine.neg.name, engine.mneg.name):
            return {k: -c for k, c in walk(args[0]).items()}
        if name == engine.mul.name:
            return _poly_mul(walk(args[0]).items(), walk(args[1]).items())
        poly, mod = walk(args[0]), walk(args[1])
        out = {}
        for pm, pc in poly.items():
            for (mm, pt), mc in mod.items():
                key = (_mono_mul(pm, mm), pt)
                c = out.get(key, 0) + pc * mc
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        return out
    if isinstance(engine, OperadEngine):
        if name == engine.unit.name:
            return 1
        perms = {op.name: sigma for (_, sigma), op in engine.perms.items()}
        if name in perms:
            sigma = perms[name]
            return _relabel(walk(args[0]), lambda l: sigma[l - 1])
        # gamma: the i-th argument's leaves numbered after the leaves of
        # the arguments before it, then set on the outer leaf labelled i
        shifted, offset = [], 0
        for a in args[1:]:
            shifted.append(_relabel(walk(a), lambda l, o=offset: l + o))
            offset += a.sort.level
        return _relabel(walk(args[0]), lambda i: shifted[i - 1])
    if isinstance(engine, PathEngine):
        ids = {op.name: x for x, op in engine.id_ops.items()}
        if name in ids:
            x = ids[name]
            return ((x, x), ())
        (x1, _), e1 = walk(args[0])
        (_, y2), e2 = walk(args[1])
        return ((x1, y2), e1 + e2)
    raise AssertionError(f"no reference walk for {type(engine).__name__}")


def reference_evaluate(alg, term, env):
    """Term evaluation by one recursive walk that checks every variable
    where it meets it: the first unbound variable or element outside its
    carrier, left to right, raises."""
    if isinstance(term, Var):
        if term.name not in env:
            raise UnboundVariable(f"no value for variable {term.name!r}")
        val = env[term.name]
        if val not in alg.carriers[term.sort]:
            raise ElementNotInCarrier(f"{val!r} not in carrier of {term.sort.name}")
        return val
    args = tuple(reference_evaluate(alg, a, env) for a in term.args)
    return alg.tables[term.op.name][args]


def reference_check_equations(alg) -> list:
    """Every (equation, assignment) violation, by evaluating both sides
    under every assignment of the equation's context."""
    bad = []
    for eq in alg.doctrine.equations:
        sorts = [v.sort for v in eq.context.vars]
        names = [v.name for v in eq.context.vars]
        for combo in itertools.product(*(alg.carriers[s] for s in sorts)):
            env = dict(zip(names, combo))
            if reference_evaluate(alg, eq.lhs, env) != reference_evaluate(alg, eq.rhs, env):
                bad.append((eq, env))
    return bad


def reference_check_monad_laws(alg, depth: int = 3, inner_cap: int = 12,
                               outer_cap: int = 160) -> list:
    """The structure-map laws with no memo: every inner term, flattened
    normal form and outer term is evaluated again for every combination
    of inner terms.  Same failures, in the same order, with the same stop
    after more than 20, as `models.check_monad_laws`."""
    failures = []
    vars_, env = [], {}
    for s in sorted(alg.carriers, key=lambda x: x.name):
        for e in alg.carriers[s]:
            v = Var(f"c_{s.name}_{e}", s)
            vars_.append(v)
            env[v.name] = e
    ctx = Context(tuple(vars_))
    for s in sorted(alg.carriers, key=lambda x: x.name):
        for e in alg.carriers[s]:
            if reference_evaluate(alg, Var(f"c_{s.name}_{e}", s), env) != e:
                failures.append({"law": "unit", "sort": s.name, "element": e})
    inner = {}
    for s in alg.doctrine.sorts:
        inner[s] = enumerate_terms(ctx, s, alg.doctrine, max(1, depth - 1))[:inner_cap]
    sorts = sorted(alg.doctrine.sorts, key=lambda s: s.name)
    slot_shapes = [(s,) for s in sorts] + list(itertools.product(sorts, repeat=2))
    for shape in slot_shapes:
        slots = Context(tuple(Var(f"w{i+1}", s) for i, s in enumerate(shape)))
        for target in sorts:
            outers = enumerate_raw_terms(slots, target, alg.doctrine, depth - 1, cap=outer_cap)
            for outer in outers:
                for combo in itertools.product(*(inner[s] for s in shape)):
                    asg = {f"w{i+1}": t for i, t in enumerate(combo)}
                    flattened = alg.doctrine.engine.substitute((outer,), asg)[0]
                    lhs = reference_evaluate(alg, flattened, env)
                    outer_env = {
                        f"w{i+1}": reference_evaluate(alg, t, env) for i, t in enumerate(combo)
                    }
                    rhs = reference_evaluate(alg, outer, outer_env)
                    if lhs != rhs:
                        failures.append({
                            "law": "assoc",
                            "outer": print_term(outer),
                            "inner": [print_term(t) for t in combo],
                            "flattened": lhs,
                            "composed": rhs,
                        })
                        if len(failures) > 20:
                            return failures
    return failures


def naive_arrow_closure(X):
    """The composition closure of a diagram by recomposing every
    composable pair of the closure each round until a round adds
    nothing.  Returns (closure dict, conflicts list); a conflict repeats
    each round it is met again."""
    closure = {}
    conflicts = []
    for obj in X.objects():
        ident = identity(obj)
        closure[ident] = {x: x for x in X.values[obj]}
    for m, table in X.arrows.items():
        _naive_merge(closure, m, table, conflicts)
    changed = True
    while changed:
        changed = False
        items = list(closure.items())
        for f, ftab in items:
            for g, gtab in items:
                if f.target != g.source:
                    continue
                h = compose(X.doctrine, g, f)
                if X.morphism_size(h) > X.term_bound:
                    continue
                htab = {}
                for x, y in ftab.items():
                    if y in gtab:
                        htab[x] = gtab[y]
                if not htab:
                    continue
                if _naive_merge(closure, h, htab, conflicts):
                    changed = True
    return closure, conflicts


def _naive_merge(closure, m, table, conflicts):
    if m not in closure:
        closure[m] = dict(table)
        return True
    existing = closure[m]
    grew = False
    for x, y in table.items():
        if x in existing:
            if existing[x] != y:
                conflicts.append(
                    f"arrow {m}: composite images disagree at {x!r}: "
                    f"{existing[x]!r} vs {y!r}"
                )
        else:
            existing[x] = y
            grew = True
    return grew


def representable_by_compose(doctrine, rep, object_bound, term_bound):
    """Values and arrow tables of Hom(rep, -) on the truncation, each
    image built as a composite morphism."""
    values = {
        obj: tuple(m.terms for m in hom_enumerate(rep, obj, doctrine, term_bound))
        for obj in objects_up_to(doctrine, object_bound)
    }
    # each element rebuilt from its terms once, not once per arrow; a
    # composite is enumerated when it is the morphism of enumerated terms
    elements = {obj: {make_morphism(doctrine, rep, obj, x): x for x in xs}
                for obj, xs in values.items()}
    arrows = {}
    for w in generating_morphisms(doctrine, object_bound):
        allowed = elements[w.target]
        table = {}
        for m, x in elements[w.source].items():
            terms = allowed.get(compose(doctrine, w, m))
            if terms is not None:
                table[x] = terms
        arrows[w] = table
    return values, arrows
