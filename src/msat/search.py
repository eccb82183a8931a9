"""The finite constraint solver and the union-find behind msat's searches:
natural transformations, presentation homs and algebra homomorphisms are
built as `(domains, constraints)` for `solve`; `UnionFind` serves the
pushout steps, the generic engine's e-graph and the connected
components of simplicial sets.
"""

from __future__ import annotations

from collections import deque


def solve(domains, constraints) -> list[tuple]:
    """Every solution, as a tuple of values in variable order.

    `domains[i]` lists the values of variable i in order.  A constraint is
    `(fn, sources, target)` with `sources` a tuple of variables and `fn`
    pure: *functional* when `target` is a variable, meaning
    `value[target] == fn(*value[sources])`, and a *check* when `target` is
    None, meaning `fn(*value[sources])` is true.  A functional constraint
    with one source other than its target is an arc, kept consistent in
    both directions (AC-3, Mackworth 1977) through an image table that
    arcs with an equal `fn` share; once its source is fixed, an arc is a
    forward check that keeps only the target values equal to the
    source's image, or fails.  Every other constraint fires once all its
    sources are fixed, forcing the target or failing.  Forcing keeps
    every copy of a value that a domain lists twice, so each copy has
    its own solutions, as in `itertools.product` of the domains.  The
    search branches on the first unfixed variable and tries its values
    in domain order, so solutions come out in lexicographic order of the
    domains.
    """
    doms = [list(d) for d in domains]
    cons = []  # (True, image table, source, target) or (False, fn, sources, target)
    watch: list[list[int]] = [[] for _ in doms]
    images: dict = {}
    for ci, (fn, sources, target) in enumerate(constraints):
        if target is not None and len(sources) == 1 and sources[0] != target:
            (s,) = sources
            table = images.setdefault(fn, {})
            for a in doms[s]:
                if a not in table:
                    table[a] = fn(a)
            cons.append((True, table, s, target))
            watched = (s, target)
        else:
            cons.append((False, fn, sources, target))
            watched = dict.fromkeys(sources if target is None else sources + (target,))
        for v in watched:
            watch[v].append(ci)

    def propagate(doms, dirty) -> bool:
        """Narrow `doms` in place from `dirty` onwards; False on a failure."""
        if not dirty:
            return True
        queue = deque(dirty)
        queued = set(queue)

        def narrow(v, d):
            doms[v] = d
            for cj in watch[v]:
                if cj not in queued:
                    queue.append(cj)
                    queued.add(cj)

        while queue:
            ci = queue.popleft()
            queued.discard(ci)
            arc, fn, sources, target = cons[ci]
            if arc:
                s = sources  # an arc has one source
                ds = doms[s]
                if len(ds) > 1:  # a revision both ways
                    dt = doms[target]
                    allowed = set(dt)
                    ds = [a for a in ds if fn[a] in allowed]
                    if not ds:
                        return False
                    if len(ds) < len(doms[s]):
                        narrow(s, ds)
                    reached = {fn[a] for a in ds}
                    if len(reached) < len(dt):
                        kept = [b for b in dt if b in reached]
                        if len(kept) < len(dt):  # not when dt repeats what it keeps
                            narrow(target, kept)
                    continue
                value = fn[ds[0]]  # a forward check
            else:
                fixed = True
                for s in sources:
                    if len(doms[s]) > 1:
                        fixed = False
                        break
                if not fixed:
                    continue
                value = fn(*[doms[s][0] for s in sources])
                if target is None:
                    if not value:
                        return False
                    continue
            dt = doms[target]
            if len(dt) == 1:  # a fixed target: one comparison
                if dt[0] != value:
                    return False
                continue
            kept = [b for b in dt if b == value]
            if not kept:
                return False
            if len(kept) < len(dt):
                narrow(target, kept)
        return True

    solutions: list[tuple] = []

    def search(doms, i):
        # variables before i are fixed, and propagation only narrows
        while i < len(doms) and len(doms[i]) == 1:
            i += 1
        if i == len(doms):
            solutions.append(tuple([d[0] for d in doms]))
            return
        for value in doms[i]:
            child = list(doms)
            child[i] = [value]
            if propagate(child, watch[i]):
                search(child, i + 1)

    if all(doms) and propagate(doms, range(len(cons))):
        search(doms, 0)
    return solutions


class UnionFind:
    """Disjoint sets over hashable keys compared with `==`.  A root is a
    key with no parent entry, so a key never seen is its own root."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, key):
        parent = self.parent
        root = key
        while root in parent:
            root = parent[root]
        while key in parent:
            parent[key], key = root, parent[key]
        return root

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False if they were one class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True
