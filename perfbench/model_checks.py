"""model-checks: finite-model jobs in the shape of acceptance criterion c06.

Jobs check the defining equations and the structure-map (monad) laws of
every valid and faulted catalog model, count group homomorphisms between
Z1..Z6 and S3 by brute force, and check the free/forgetful adjunction.
The time goes to `models.evaluate`, substitution and normalization of
short-lived terms, each built once and read once.

Every job comes up once per round: the equations and monad laws of all
30 catalog models, all 36 hom counts between the six groups and all 60
adjunction checks.  The seed only orders them.
"""

from __future__ import annotations

import random

import msat.models as models
from msat.builtins import builtin_doctrine
from msat.catalog import faulted_catalog, models_for, valid_catalog

from jobs import Job, expect, group_hom_count

GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z6", "S3")
# a round takes about 10 s; a third repeat steadies each job's best time
MIN_ROUNDS = 3

ADJ_DOCTRINES = (
    ("trivial", {}), ("monoid", {}), ("group", {}), ("group-action", {}),
    ("ring-module", {}), ("operad-nonsigma", {"level_cap": 3}),
    ("operad-symmetric", {"level_cap": 3}),
    ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "x"),)}),
)


class Workload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # name -> (algebra, faulted?) for every catalog model
        self.catalog = {a.name: (a, False) for a in valid_catalog()}
        self.catalog.update((a.name, (a, True)) for a, _ in faulted_catalog())
        group = builtin_doctrine("group")
        self.groups = {a.name: a for a in models_for(group, 6)}
        self.adj = {}
        for ident, kw in ADJ_DOCTRINES:
            d = builtin_doctrine(ident, **kw)
            bound = 6 if ident == "group" else 3
            for alg in models_for(d, bound):
                for sort in d.sorts:
                    self.adj[(d.name, alg.name, sort.name, 2)] = (d, alg, sort)

    def round(self):
        specs = [("equations", n) for n in self.catalog]
        specs += [("monad", n) for n in self.catalog]
        specs += [("homs", a, b) for a in GROUPS for b in GROUPS]
        specs += [("adjunction",) + item for item in self.adj]
        self.rng.shuffle(specs)
        return specs

    def job(self, spec, index):
        kind, key = spec[0], "/".join(str(x) for x in spec)
        if kind == "equations":
            alg, faulted = self.catalog[spec[1]]
            return Job(key, lambda: bool(models.check_equations(alg)), expect(faulted))
        if kind == "monad":
            alg, faulted = self.catalog[spec[1]]
            return Job(key, lambda: bool(models.check_monad_laws(alg, 3)), expect(faulted))
        if kind == "homs":
            a, b = self.groups[spec[1]], self.groups[spec[2]]
            return Job(key, lambda: len(models.enumerate_homs(a, b)),
                       expect(group_hom_count(a.name, b.name)))
        d, alg, sort = self.adj[spec[1:]]
        gens = [f"y{i + 1}" for i in range(spec[4])]
        return Job(key, lambda: models.adjunction_check(d, sort, gens, alg), expect(True))
