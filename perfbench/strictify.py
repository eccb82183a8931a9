"""strictify: fuzzed diagram jobs (acceptance criteria c03, c04, c07-c10).

Jobs check functoriality by arrow closure (on random trivial diagrams,
broken ones included, and on algebra-induced and twisted diagrams of ocat
and ring-module), strict-versus-local agreement, the strictification's
universal property, budgeted localization, the two pushout steps against
natural transformations, Yoneda, the strictified projection maps, and
strictness and the homotopy probe on random simplicial sets.  This is the
only heavy user of `diagram`, `rigidify`, `presentations.homs_into` and
`simplicial`.
"""

from __future__ import annotations

import random

import msat.diagram as diagram
import msat.models as models
import msat.rigidify as rigidify
import msat.simplicial as simplicial
from msat.builtins import builtin_doctrine
from msat.catalog import models_for
from msat.fuzz import (
    make_rng,
    product_simplicial_diagram,
    random_trivial_diagram,
    twisted_algebra_diagram,
)
from msat.theory_cat import TheoryObject

from jobs import Job, expect, small_ssets

DOCTRINES = (
    ("trivial", {}), ("monoid", {}), ("group", {}), ("group-action", {}),
    ("ring-module", {}), ("operad-nonsigma", {"level_cap": 3}),
    ("operad-symmetric", {"level_cap": 3}),
    ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "x"),)}),
)
SSET_POOL = 14
# jobs per round on fuzzed diagrams, each from its own seeded fuzz seed
FUZZED = {"functorial": 12, "broken": 4, "strict_local": 6, "up_fuzzed": 6, "localize": 6,
          "steps": 6}


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.docs = {ident: builtin_doctrine(ident, **kw) for ident, kw in DOCTRINES}
        self.trivial = self.docs["trivial"]
        self.t1 = TheoryObject.of(self.trivial.sorts[0])
        self.pmap = rigidify.projection_map_set(self.trivial, 2)[0]
        self.trivial_models = models_for(self.trivial, 3)
        ocat, ring = self.docs["ocat"], self.docs["ring-module"]
        self.ocat_models = models_for(ocat, 3)
        self.ring_models = models_for(ring, 3)
        self.up_models = [
            alg for ident in ("trivial", "monoid", "group", "ocat")
            for alg in models_for(self.docs[ident], 3)[:2]
        ]
        self.yoneda = [
            (ident, ai, si)
            for ident, d in self.docs.items()
            for ai, alg in enumerate(models_for(d, 3))
            for si in range(len(d.sorts))
        ]
        self.ktk = [(ident, pi) for ident in ("trivial", "monoid", "group") for pi in range(2)]
        self.ssets = small_ssets(7000, SSET_POOL)

    def round(self):
        """Every job on the finite pools once, and seeded fuzz seeds for the
        fuzzed diagrams, in a seeded order."""
        specs = [(kind, self.rng.randrange(1 << 30))
                 for kind, n in FUZZED.items() for _ in range(n)]
        specs += [("ocat_functorial", i, t) for i in range(len(self.ocat_models)) for t in (0, 1)]
        specs += [("ring_functorial", i) for i in range(len(self.ring_models))]
        specs += [("up_algebra", i) for i in range(len(self.up_models))]
        specs += [("up_twisted", i) for i in range(len(self.ocat_models))]
        specs += [("yoneda",) + item for item in self.yoneda]
        specs += [("ktk",) + item for item in self.ktk]
        specs += [(kind, i) for kind in ("sset", "sset_inflated") for i in range(SSET_POOL)]
        self.rng.shuffle(specs)
        return specs

    def job(self, spec, index):
        kind, args = spec[0], spec[1:]
        key = "/".join(str(x) for x in spec)
        return Job(key, *getattr(self, "_" + kind)(*args))

    # -- job bodies: each returns (run, check) ---------------------------

    def _fuzzed(self, fuzz_seed, flavor):
        return random_trivial_diagram(make_rng(fuzz_seed), self.trivial, flavor)

    def _functorial(self, fuzz_seed):
        X = self._fuzzed(fuzz_seed, "any")
        return (lambda: bool(X.check_functorial())), expect(False)

    def _broken(self, fuzz_seed):
        X = self._fuzzed(fuzz_seed, "broken")
        return (lambda: bool(X.check_functorial())), expect(True)

    def _strict_local(self, fuzz_seed):
        X = self._fuzzed(fuzz_seed, "any")

        def run():
            return (models.check_product_preservation(X)[0]
                    == rigidify.check_strictly_local(X)[0])

        return run, expect(True)

    def _ocat_functorial(self, ai, twisted):
        alg = self.ocat_models[ai]
        rng = make_rng(self.seed + ai)

        def run():
            if twisted:
                X = twisted_algebra_diagram(rng, alg, 2, 2, duplicates=1)
            else:
                X = models.as_functor(alg, 2)
            return bool(X.check_functorial())

        return run, expect(False)

    def _ring_functorial(self, ai):
        alg = self.ring_models[ai]
        return (lambda: bool(models.as_functor(alg, 2).check_functorial())), expect(False)

    def _up_fuzzed(self, fuzz_seed):
        X = self._fuzzed(fuzz_seed, "any")

        def run():
            return rigidify.verify_universal_property(X, rigidify.rigidify_presentation(X), 3)[0]

        return run, expect(True)

    def _up_algebra(self, ai):
        alg = self.up_models[ai]

        def run():
            X = models.as_functor(alg, 2)
            return rigidify.verify_universal_property(X, rigidify.rigidify_presentation(X), 3)[0]

        return run, expect(True)

    def _up_twisted(self, ai):
        alg = self.ocat_models[ai]
        rng = make_rng(self.seed + 17 * ai)

        def run():
            X = twisted_algebra_diagram(rng, alg, 2, 2, duplicates=ai % 3)
            return rigidify.verify_universal_property(X, rigidify.rigidify_presentation(X), 2)[0]

        return run, expect(True)

    def _localize(self, fuzz_seed):
        X = self._fuzzed(fuzz_seed, "nonlocal")

        def run():
            res = rigidify.localize(X, 8)
            return rigidify.check_strictly_local(res.diagram)[0]

        return run, expect(True)

    def _steps(self, fuzz_seed):
        X = self._fuzzed(fuzz_seed, "any")
        alg = self.trivial_models[fuzz_seed % len(self.trivial_models)]
        p = self.pmap

        def run():
            # each step is a strict/local equivalence: natural
            # transformations into a model restrict bijectively along its unit
            surj = rigidify.surjectivity_step(X, p)
            inj = rigidify.injectivity_step(surj.diagram, p)
            H = models.AlgebraFunctor(alg, 2)
            for source, res in ((X, surj), (surj.diagram, inj)):
                before = diagram.natural_transformations(source, H)
                after = diagram.natural_transformations(res.diagram, H)
                restricted = [
                    frozenset(rigidify.restrict_nat(n, res.unit).items()) for n in after
                ]
                if len(set(restricted)) != len(restricted):
                    return False
                if set(restricted) != {frozenset(n.items()) for n in before}:
                    return False
            return True

        return run, expect(True)

    def _yoneda(self, ident, ai, si):
        d = self.docs[ident]
        alg = models_for(d, 3)[ai]
        sort = d.sorts[si]

        def run():
            X = diagram.representable_diagram(d, TheoryObject.of(sort), 2, 2)
            return len(diagram.natural_transformations(X, models.AlgebraFunctor(alg, 2)))

        return run, expect(len(alg.carriers[sort]))

    def _ktk(self, ident, pi):
        d = self.docs[ident]
        p = rigidify.projection_map_set(d, 3)[pi]
        return (lambda: rigidify.verify_ktk(d, p, 3)[0]), expect(True)

    def _sset(self, si):
        S = self.ssets[si]

        def run():
            SD = product_simplicial_diagram(self.trivial, S, inflate=False)
            return simplicial.check_strict(SD)[0], simplicial.homotopy_probe(SD).passed

        return run, expect((True, True))

    def _sset_inflated(self, si):
        S = self.ssets[si]

        def run():
            # the diagonal copy adds components at the square object, so
            # strictness fails and the probe refutes at pi0
            SD = product_simplicial_diagram(self.trivial, S, inflate=True)
            probe = simplicial.homotopy_probe(SD)
            return simplicial.check_strict(SD)[0], probe.passed, probe.refuted_at[1]

        return run, expect((False, False, "pi0"))
