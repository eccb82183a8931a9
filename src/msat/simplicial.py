"""Truncated simplicial sets and simplicial theory-indexed diagrams.

Everything is truncated at a dimension cap (default 3).  Weak
equivalence is never decided: the homotopy probe only refutes, by
comparing connected components and integral homology (normalized
chains, Smith normal form) below the cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .diagram import DiagramOnTruncation
from .errors import InvalidParameter
from .models import FiniteAlgebra, check_product_preservation
from .presentations import AlgebraPresentation, free_presentation
from .search import UnionFind
from .signature import Context, Doctrine, Sort, Term, Var, normalize
from .theory_cat import TheoryObject, objects_up_to

DEFAULT_DIM_CAP = 3


class TruncSimplicialSet:
    def __init__(self, cap: int, levels: dict, faces: dict, degeneracies: dict,
                 check: bool = True):
        self.cap = cap
        self.levels = {n: tuple(levels.get(n, ())) for n in range(cap + 1)}
        self.faces = {k: dict(v) for k, v in faces.items()}
        self.degeneracies = {k: dict(v) for k, v in degeneracies.items()}
        if check:
            problems = self.identity_problems()
            if problems:
                raise InvalidParameter("not a simplicial set: " + problems[0])

    def level(self, n: int):
        return self.levels[n]

    def face(self, n: int, i: int) -> dict:
        return self.faces[(n, i)]

    def degeneracy(self, n: int, j: int) -> dict:
        return self.degeneracies[(n, j)]

    def identity_problems(self) -> list[str]:
        out = []
        for n in range(1, self.cap + 1):
            for i in range(n + 1):
                table = self.faces.get((n, i))
                if table is None or set(table) != set(self.levels[n]):
                    out.append(f"face d_{i} at level {n} missing or partial")
                    return out
                if any(v not in set(self.levels[n - 1]) for v in table.values()):
                    out.append(f"face d_{i} at level {n} leaves the level set")
        for n in range(self.cap):
            for j in range(n + 1):
                table = self.degeneracies.get((n, j))
                if table is None or set(table) != set(self.levels[n]):
                    out.append(f"degeneracy s_{j} at level {n} missing or partial")
                    return out
                if any(v not in set(self.levels[n + 1]) for v in table.values()):
                    out.append(f"degeneracy s_{j} at level {n} leaves the level set")
        if out:
            return out  # identity checks below assume total, in-range maps
        # d_i d_j = d_{j-1} d_i (i < j)
        for n in range(2, self.cap + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    for x in self.levels[n]:
                        lhs = self.faces[(n - 1, i)][self.faces[(n, j)][x]]
                        rhs = self.faces[(n - 1, j - 1)][self.faces[(n, i)][x]]
                        if lhs != rhs:
                            out.append(f"d_{i} d_{j} != d_{j-1} d_{i} at level {n} on {x!r}")
        # face/degeneracy relations
        for n in range(self.cap):
            for j in range(n + 1):
                for i in range(n + 2):
                    for x in self.levels[n]:
                        val = self.faces[(n + 1, i)][self.degeneracies[(n, j)][x]]
                        if i == j or i == j + 1:
                            want = x
                        elif i < j:
                            want = self.degeneracies[(n - 1, j - 1)][self.faces[(n, i)][x]]
                        else:
                            want = self.degeneracies[(n - 1, j)][self.faces[(n, i - 1)][x]]
                        if val != want:
                            out.append(f"d_{i} s_{j} relation fails at level {n} on {x!r}")
        # s_i s_j = s_{j+1} s_i (i <= j)
        for n in range(self.cap - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    for x in self.levels[n]:
                        lhs = self.degeneracies[(n + 1, i)][self.degeneracies[(n, j)][x]]
                        rhs = self.degeneracies[(n + 1, j + 1)][self.degeneracies[(n, i)][x]]
                        if lhs != rhs:
                            out.append(f"s_{i} s_{j} relation fails at level {n} on {x!r}")
        return out

    def degenerate_at(self, n: int) -> set:
        if n == 0:
            return set()
        out = set()
        for j in range(n):
            out.update(self.degeneracies[(n - 1, j)].values())
        return out

    def nondegenerate(self, n: int) -> list:
        degen = self.degenerate_at(n)
        return [x for x in self.levels[n] if x not in degen]

    def pi0_classes(self) -> list[frozenset]:
        """Connected components of the vertices, in first-member order."""
        uf = UnionFind()
        if self.cap >= 1:
            for e in self.levels[1]:
                uf.union(self.faces[(1, 0)][e], self.faces[(1, 1)][e])
        groups: dict = {}
        for x in self.levels[0]:
            groups.setdefault(uf.find(x), set()).add(x)
        return [frozenset(g) for g in groups.values()]


def standard(kind: str, n: int, k: int | None = None, cap: int = DEFAULT_DIM_CAP) -> TruncSimplicialSet:
    """The n-simplex, its boundary, or the horn with the k-th face
    removed, truncated at the cap.  Simplices are monotone tuples."""
    if n < 0:
        raise InvalidParameter("dimension must be >= 0")
    if kind == "delta":
        member = lambda seq: True
    elif kind == "boundary":
        member = lambda seq: len(set(seq)) < n + 1
    elif kind == "horn":
        if n < 1 or k is None or not 0 <= k <= n:
            raise InvalidParameter("horn(n,k) needs n >= 1 and 0 <= k <= n")
        member = lambda seq: any(i not in set(seq) for i in range(n + 1) if i != k)
    else:
        raise InvalidParameter(f"unknown standard simplicial set {kind!r}")
    levels = {}
    for m in range(cap + 1):
        levels[m] = tuple(
            seq for seq in itertools.combinations_with_replacement(range(n + 1), m + 1)
            if member(seq)
        )
    faces, degens = {}, {}
    for m in range(1, cap + 1):
        for i in range(m + 1):
            faces[(m, i)] = {s: s[:i] + s[i + 1:] for s in levels[m]}
    for m in range(cap):
        for j in range(m + 1):
            degens[(m, j)] = {s: s[: j + 1] + s[j:] for s in levels[m]}
    return TruncSimplicialSet(cap, levels, faces, degens)


def nerve_of_preorder(elements, leq, cap: int = DEFAULT_DIM_CAP) -> TruncSimplicialSet:
    """Nerve of a preorder: level m is the set of (m+1)-chains."""
    elements = tuple(elements)
    levels = {0: tuple((e,) for e in elements)}
    for m in range(1, cap + 1):
        levels[m] = tuple(
            chain + (e,)
            for chain in levels[m - 1]
            for e in elements
            if leq(chain[-1], e)
        )
    faces, degens = {}, {}
    for m in range(1, cap + 1):
        for i in range(m + 1):
            faces[(m, i)] = {s: s[:i] + s[i + 1:] for s in levels[m]}
    for m in range(cap):
        for j in range(m + 1):
            degens[(m, j)] = {s: s[: j + 1] + s[j:] for s in levels[m]}
    return TruncSimplicialSet(cap, levels, faces, degens)


def disjoint_union(a: TruncSimplicialSet, b: TruncSimplicialSet) -> TruncSimplicialSet:
    cap = min(a.cap, b.cap)
    levels, faces, degens = {}, {}, {}
    for m in range(cap + 1):
        levels[m] = tuple((0, x) for x in a.levels[m]) + tuple((1, x) for x in b.levels[m])
    for m in range(1, cap + 1):
        for i in range(m + 1):
            faces[(m, i)] = {
                **{(0, x): (0, y) for x, y in a.faces[(m, i)].items()},
                **{(1, x): (1, y) for x, y in b.faces[(m, i)].items()},
            }
    for m in range(cap):
        for j in range(m + 1):
            degens[(m, j)] = {
                **{(0, x): (0, y) for x, y in a.degeneracies[(m, j)].items()},
                **{(1, x): (1, y) for x, y in b.degeneracies[(m, j)].items()},
            }
    return TruncSimplicialSet(cap, levels, faces, degens, check=False)


# -- integral homology ---------------------------------------------------


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Invariant factors (positive, divisibility-ordered) of an integer
    matrix, by repeated pivot reduction."""
    m = [list(row) for row in mat]
    R = len(m)
    C = len(m[0]) if R else 0
    diag = []
    t = 0
    while t < min(R, C):
        pr = pc = best = None
        for i in range(t, R):
            for j in range(t, C):
                if m[i][j] and (best is None or abs(m[i][j]) < best):
                    pr, pc, best = i, j, abs(m[i][j])
        if pr is None:
            break
        m[t], m[pr] = m[pr], m[t]
        for row in m:
            row[t], row[pc] = row[pc], row[t]
        while True:
            for i in range(t + 1, R):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            for j in range(t + 1, C):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if all(m[i][t] == 0 for i in range(t + 1, R)) and all(
                m[t][j] == 0 for j in range(t + 1, C)
            ):
                break
        diag.append(abs(m[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if a and b % a:
                    g = math.gcd(a, b)
                    diag[i], diag[j] = g, a * b // g
                    changed = True
    return sorted(d for d in diag if d)


def boundary_matrices(X: TruncSimplicialSet) -> list[list[list[int]]]:
    """Normalized-chain boundary matrices; entry [n] maps level n to
    level n-1 (n >= 1)."""
    nondeg = [X.nondegenerate(n) for n in range(X.cap + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in nondeg]
    mats = [None]
    for n in range(1, X.cap + 1):
        rows = len(nondeg[n - 1])
        mat = [[0] * len(nondeg[n]) for _ in range(rows)]
        degen_prev = X.degenerate_at(n - 1)
        for col, s in enumerate(nondeg[n]):
            for i in range(n + 1):
                f = X.faces[(n, i)][s]
                if f in degen_prev:
                    continue
                mat[index[n - 1][f]][col] += (-1) ** i
        mats.append(mat)
    return mats


def homology_invariants(X: TruncSimplicialSet, upto: int) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, torsion factors) for H_i, i = 0..upto-1, computed from the
    normalized chain complex.  Needs upto <= cap."""
    if upto > X.cap:
        raise InvalidParameter("homology beyond the dimension cap")
    nondeg_counts = [len(X.nondegenerate(n)) for n in range(X.cap + 1)]
    mats = boundary_matrices(X)
    ranks = [0]
    snfs = [[]]
    for n in range(1, X.cap + 1):
        snf = smith_normal_form(mats[n])
        snfs.append(snf)
        ranks.append(len(snf))
    out = []
    for i in range(upto):
        kernel = nondeg_counts[i] - ranks[i]
        image = ranks[i + 1] if i + 1 <= X.cap else 0
        betti = kernel - image
        torsion = tuple(d for d in (snfs[i + 1] if i + 1 <= X.cap else []) if d > 1)
        out.append((betti, torsion))
    return out


def sset_invariants(X: TruncSimplicialSet) -> dict:
    return {
        "pi0": len(X.pi0_classes()),
        "homology": homology_invariants(X, X.cap),
    }


# -- simplicial diagrams -------------------------------------------------


class SimplicialDiagram:
    """A dimension-capped tower of set-valued diagrams with face and
    degeneracy transformations between consecutive levels."""

    def __init__(self, doctrine: Doctrine, cap: int, levels: list[DiagramOnTruncation],
                 faces: dict, degeneracies: dict, check: bool = True):
        if len(levels) != cap + 1:
            raise InvalidParameter("need one diagram per level up to the cap")
        self.doctrine = doctrine
        self.cap = cap
        self.levels = list(levels)
        self.faces = {k: {o: dict(t) for o, t in v.items()} for k, v in faces.items()}
        self.degeneracies = {
            k: {o: dict(t) for o, t in v.items()} for k, v in degeneracies.items()
        }
        if check:
            problems = self.structure_problems()
            if problems:
                raise InvalidParameter("bad simplicial diagram: " + problems[0])

    def objects(self):
        return self.levels[0].objects()

    def structure_problems(self) -> list[str]:
        problems = []
        for obj in self.objects():
            try:
                self.object_sset(obj, check=True)
            except InvalidParameter as err:
                problems.append(f"at {obj}: {err}")
        # naturality of structure maps against the level diagrams
        for (n, i), tables in self.faces.items():
            lower = self.levels[n - 1]
            upper = self.levels[n]
            for m, table in upper.arrows.items():
                ltable = lower.arrows.get(m, {})
                for x, y in table.items():
                    fx = tables[m.source].get(x)
                    fy = tables[m.target].get(y)
                    if fx is not None and fx in ltable and fy is not None:
                        if ltable[fx] != fy:
                            problems.append(
                                f"face d_{i} at level {n} not natural for {m} at {x!r}"
                            )
        return problems

    def object_sset(self, obj: TheoryObject, check: bool = False) -> TruncSimplicialSet:
        levels = {n: self.levels[n].value(obj) for n in range(self.cap + 1)}
        faces = {
            (n, i): self.faces[(n, i)][obj]
            for n in range(1, self.cap + 1)
            for i in range(n + 1)
        }
        degens = {
            (n, j): self.degeneracies[(n, j)][obj]
            for n in range(self.cap)
            for j in range(n + 1)
        }
        return TruncSimplicialSet(self.cap, levels, faces, degens, check=check)

    def product_sset(self, obj: TheoryObject) -> TruncSimplicialSet:
        """Levelwise product of the size-one values of obj's sorts."""
        singles = [TheoryObject.of(s) for s in obj.sorts]
        levels = {
            n: tuple(itertools.product(*(self.levels[n].value(o) for o in singles)))
            for n in range(self.cap + 1)
        }
        faces, degens = {}, {}
        for n in range(1, self.cap + 1):
            for i in range(n + 1):
                tables = [self.faces[(n, i)][o] for o in singles]
                faces[(n, i)] = {
                    x: tuple(t[c] for t, c in zip(tables, x)) for x in levels[n]
                }
        for n in range(self.cap):
            for j in range(n + 1):
                tables = [self.degeneracies[(n, j)][o] for o in singles]
                degens[(n, j)] = {
                    x: tuple(t[c] for t, c in zip(tables, x)) for x in levels[n]
                }
        return TruncSimplicialSet(self.cap, levels, faces, degens, check=False)


def check_strict(X: SimplicialDiagram):
    """Levelwise bijectivity of every canonical map; failures name the
    (level, object) pairs."""
    failures = []
    for n, level in enumerate(X.levels):
        failures.extend({**f, "level": n} for f in check_product_preservation(level)[1])
    return (not failures), failures


@dataclass
class ProbeResult:
    passed: bool
    refuted_at: tuple | None = None
    terminal_flag: str | None = None
    details: list = field(default_factory=list)


def homotopy_probe(X: SimplicialDiagram) -> ProbeResult:
    """Necessary conditions for the canonical maps to be weak
    equivalences: equal component counts and equal homology below the
    cap.  Refutation-only; passing does not decide weak equivalence.
    The terminal object's contractibility is reported separately."""
    result = ProbeResult(passed=True)
    for obj in X.objects():
        if obj.size == 1:
            continue
        dom = X.object_sset(obj)
        dom_inv = sset_invariants(dom)
        if obj.size == 0:
            point = {"pi0": 1, "homology": [(1 if i == 0 else 0, ()) for i in range(X.cap)]}
            if dom_inv != point:
                result.terminal_flag = (
                    f"value at the terminal object is not point-like: {dom_inv}"
                )
            continue
        cod_inv = sset_invariants(X.product_sset(obj))
        result.details.append({"object": obj.key(), "value": dom_inv, "product": cod_inv})
        if dom_inv["pi0"] != cod_inv["pi0"]:
            result.passed = False
            result.refuted_at = (obj.key(), "pi0", dom_inv["pi0"], cod_inv["pi0"])
            return result
        for i, (dv, cv) in enumerate(zip(dom_inv["homology"], cod_inv["homology"])):
            if dv != cv:
                result.passed = False
                result.refuted_at = (obj.key(), f"H{i}", dv, cv)
                return result
    return result


# -- simplicial algebras -------------------------------------------------


class SimplicialAlgebra:
    def __init__(self, doctrine: Doctrine, cap: int, levels: list[FiniteAlgebra],
                 faces: dict, degeneracies: dict, check: bool = True):
        self.doctrine = doctrine
        self.cap = cap
        self.levels = list(levels)
        self.faces = faces
        self.degeneracies = degeneracies
        if check:
            from .models import check_equations

            for alg in levels:
                bad = check_equations(alg)
                if bad:
                    raise InvalidParameter(f"level algebra {alg.name} violates {bad[0][0].name}")
            for (n, i), comp in faces.items():
                self._check_hom(self.levels[n], self.levels[n - 1], comp, f"d_{i}@{n}")
            for (n, j), comp in degeneracies.items():
                self._check_hom(self.levels[n], self.levels[n + 1], comp, f"s_{j}@{n}")
            for s in doctrine.sorts:
                self._sort_sset(s, check=True)

    def _check_hom(self, A, B, comp, label):
        for op in self.doctrine.ops:
            for args in itertools.product(*(A.carriers[s] for s in op.domain)):
                mapped = tuple(comp[s][a] for s, a in zip(op.domain, args))
                if comp[op.codomain][A.tables[op.name][args]] != B.tables[op.name][mapped]:
                    raise InvalidParameter(f"structure map {label} is not a homomorphism")

    def _sort_sset(self, sort: Sort, check=False) -> TruncSimplicialSet:
        levels = {n: self.levels[n].carriers[sort] for n in range(self.cap + 1)}
        faces = {
            (n, i): dict(self.faces[(n, i)][sort]) for n in range(1, self.cap + 1)
            for i in range(n + 1)
        }
        degens = {
            (n, j): dict(self.degeneracies[(n, j)][sort]) for n in range(self.cap)
            for j in range(n + 1)
        }
        return TruncSimplicialSet(self.cap, levels, faces, degens, check=check)

    def as_diagram(self, object_bound: int = 2, term_bound: int = 2) -> SimplicialDiagram:
        from .models import as_functor

        levels = [as_functor(a, object_bound, term_bound) for a in self.levels]
        objs = objects_up_to(self.doctrine, object_bound)
        faces, degens = {}, {}
        for (n, i), comp in self.faces.items():
            faces[(n, i)] = {
                obj: {
                    x: tuple(comp[s][c] for s, c in zip(obj.sorts, x))
                    for x in levels[n].value(obj)
                }
                for obj in objs
            }
        for (n, j), comp in self.degeneracies.items():
            degens[(n, j)] = {
                obj: {
                    x: tuple(comp[s][c] for s, c in zip(obj.sorts, x))
                    for x in levels[n].value(obj)
                }
                for obj in objs
            }
        return SimplicialDiagram(self.doctrine, self.cap, levels, faces, degens)


def constant_simplicial_algebra(alg: FiniteAlgebra, cap: int = DEFAULT_DIM_CAP) -> SimplicialAlgebra:
    ident = {s: {e: e for e in alg.carriers[s]} for s in alg.carriers}
    faces = {(n, i): ident for n in range(1, cap + 1) for i in range(n + 1)}
    degens = {(n, j): ident for n in range(cap) for j in range(n + 1)}
    return SimplicialAlgebra(alg.doctrine, cap, [alg] * (cap + 1), faces, degens)


def classifying_simplicial_algebra(group_alg: FiniteAlgebra, cap: int = DEFAULT_DIM_CAP) -> SimplicialAlgebra:
    """Levelwise powers of an abelian group model, with the bar-style
    face maps; level k carries the k-th power algebra."""
    doc = group_alg.doctrine
    g = doc.sort("G")
    G = group_alg.carriers[g]
    mul = group_alg.tables["mul"]
    unit = group_alg.tables["e"][()]
    levels = []
    for k in range(cap + 1):
        carrier = tuple(itertools.product(G, repeat=k))
        tables = {
            "mul": {
                (a, b): tuple(mul[(x, y)] for x, y in zip(a, b))
                for a in carrier
                for b in carrier
            },
            "inv": {(a,): tuple(group_alg.tables["inv"][(x,)] for x in a) for a in carrier},
            "e": {(): tuple(unit for _ in range(k))},
        }
        levels.append(FiniteAlgebra(doc, {g: carrier}, tables, f"{group_alg.name}^{k}"))
    faces, degens = {}, {}
    for n in range(1, cap + 1):
        for i in range(n + 1):
            table = {}
            for a in levels[n].carriers[g]:
                if i == 0:
                    table[a] = a[1:]
                elif i == n:
                    table[a] = a[:-1]
                else:
                    table[a] = a[: i - 1] + (mul[(a[i - 1], a[i])],) + a[i + 1:]
            faces[(n, i)] = {g: table}
    for n in range(cap):
        for j in range(n + 1):
            degens[(n, j)] = {
                g: {a: a[:j] + (unit,) + a[j:] for a in levels[n].carriers[g]}
            }
    return SimplicialAlgebra(doc, cap, levels, faces, degens)


# -- degreewise free simplicial algebras ----------------------------------


class DegreewiseFreeDiagram:
    """The free simplicial algebra on a simplicial set placed in one
    sort: level k is the free algebra on the k-simplices, with faces and
    degeneracies acting on generators and extended to terms.  Values are
    exposed lazily through bounded enumeration."""

    def __init__(self, doctrine: Doctrine, sort: Sort, Y: TruncSimplicialSet):
        if not doctrine.exact:
            from .errors import UnsupportedDoctrine

            raise UnsupportedDoctrine("degreewise free algebras need an exact engine")
        self.doctrine = doctrine
        self.sort = sort
        self.Y = Y
        self.cap = Y.cap
        self._gen: dict[int, dict] = {}
        for k in range(self.cap + 1):
            self._gen[k] = {
                simplex: Var(f"y{k}_{idx}", sort)
                for idx, simplex in enumerate(Y.level(k))
            }

    def generator(self, k: int, simplex) -> Var:
        return self._gen[k][simplex]

    def presentation(self, k: int) -> AlgebraPresentation:
        return free_presentation(
            self.doctrine,
            {self.sort: tuple(v.name for v in self._gen[k].values())},
            name=f"free-level-{k}",
        )

    def context(self, k: int) -> Context:
        return Context(tuple(self._gen[k].values()))

    def _rename(self, k_from: int, structure_table: dict, k_to: int):
        mapping = {}
        for simplex, var in self._gen[k_from].items():
            mapping[var.name] = self._gen[k_to][structure_table[simplex]]
        return mapping

    def face_on_term(self, k: int, i: int, term: Term) -> Term:
        ren = self._rename(k, self.Y.faces[(k, i)], k - 1)
        return self.doctrine.engine.substitute((term,), ren)[0]

    def degeneracy_on_term(self, k: int, j: int, term: Term) -> Term:
        ren = self._rename(k, self.Y.degeneracies[(k, j)], k + 1)
        return self.doctrine.engine.substitute((term,), ren)[0]

    def enumerate_value(self, k: int, obj: TheoryObject, bound: int) -> list[tuple]:
        from .signature import enumerate_terms

        ctx = self.context(k)
        per_slot = [enumerate_terms(ctx, s, self.doctrine, bound) for s in obj.sorts]
        return list(itertools.product(*per_slot))

    def check_identities(self, bound: int = 2) -> list[str]:
        """Simplicial identities on the enumerated term fragments."""
        problems = []
        from .signature import enumerate_terms

        for k in range(2, self.cap + 1):
            terms = enumerate_terms(self.context(k), self.sort, self.doctrine, bound)
            for j in range(1, k + 1):
                for i in range(j):
                    for t in terms:
                        lhs = self.face_on_term(k - 1, i, self.face_on_term(k, j, t))
                        rhs = self.face_on_term(k - 1, j - 1, self.face_on_term(k, i, t))
                        if lhs != rhs:
                            problems.append(f"d_{i} d_{j} fails at level {k}")
        for k in range(self.cap):
            terms = enumerate_terms(self.context(k), self.sort, self.doctrine, bound)
            for j in range(k + 1):
                for t in terms:
                    back = self.face_on_term(k + 1, j, self.degeneracy_on_term(k, j, t))
                    if back != normalize(t, self.doctrine):
                        problems.append(f"d_{j} s_{j} != id at level {k}")
        return problems


def degreewise_free(doctrine: Doctrine, sort: Sort, Y: TruncSimplicialSet) -> DegreewiseFreeDiagram:
    return DegreewiseFreeDiagram(doctrine, sort, Y)
