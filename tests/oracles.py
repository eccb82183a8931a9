"""Independent oracles used by the test suite.

These deliberately avoid the library's enumeration/pushout machinery:
counts come from brute-force string filtering, the Catalan recurrence,
generic set-level pushouts, and breadth-first component search.
"""

import itertools


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
    from msat.signature import normalize, substitute

    asg = {f"v{i+1}": t for i, t in enumerate(f.terms)}
    raw = tuple(substitute(t, asg) for t in g.terms)
    return raw, tuple(normalize(t, doctrine) for t in raw)
