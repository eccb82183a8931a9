"""theory-laws: category-law jobs in the shape of acceptance criterion c01.

The five small doctrines are checked as c01 checks them, on hom sets
built once at set-up and shared:

* hom: the closed-form size of one hom set, enumerated afresh;
* unit: both unit laws on every morphism of one hom set;
* assoc: associativity for one middle morphism g: b -> c, over every
  object a, every f: a -> b and every single-slot h out of c.  The memos
  of composites are shared by every g of the same (b, c) block, exactly
  as in c01, so equal composites made from different (g, f) meet in them
  and most of the time goes to `TheoryMorphism.__eq__` and memo lookups;
* product: the product universal property for one first component;
* count: closed-form counts of normal forms.

Every such job comes up once per round, except the associativity block
b = c = (G, G) of group-action, which repeats the shape of group's (G, G)
block (289 middle morphisms, about 8 s on a 2-core x86-64 machine) in
another engine and would double the round.  Ring-module and the level-3
operads (732 and 5406 morphisms at bound 2) are too big for that: their
unit and associativity jobs check seeded samples.
"""

from __future__ import annotations

import random

import msat.signature as signature
import msat.theory_cat as theory_cat
from msat.builtins import builtin_doctrine

from jobs import Job, catalan, expect, hom_count, monoid_words, reduced_words

BOUND = 2
FULL = ("trivial", "monoid", "group", "group-action", "ocat")
SAMPLED = ("ring-module", "operad-nonsigma", "operad-symmetric")
SAMPLE_F = 12
SAMPLE_H = 6
SAMPLED_ASSOC = 24  # associativity samples per sampled doctrine and round
SKIPPED_BLOCKS = {("group-action", "G,G", "G,G")}


def _doctrine(name):
    if name == "ocat":
        return builtin_doctrine("ocat", objects=("x", "y"), edges=(("f", "x", "x"),))
    if name.startswith("operad"):
        return builtin_doctrine(name, level_cap=3)
    return builtin_doctrine(name)


class Workload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.docs = {}
        for name in FULL + SAMPLED:
            d = _doctrine(name)
            objs = theory_cat.objects_up_to(d, BOUND)
            homs = {(a, b): theory_cat.hom_enumerate(a, b, d, BOUND) for a in objs for b in objs}
            singles = [theory_cat.TheoryObject.of(s) for s in d.sorts]
            self.docs[name] = (d, objs, homs, singles)
        # (doctrine, b index, c index) -> the block's three memos, as in c01
        self.memos: dict = {}
        self.count_docs = {
            "group": (self.docs["group"][0], self.docs["group"][0].sorts[0]),
            "monoid": (self.docs["monoid"][0], self.docs["monoid"][0].sorts[0]),
            "operad": (builtin_doctrine("operad-nonsigma", level_cap=5), None),
        }

    def round(self):
        """Every job of the five small doctrines once and seeded samples of
        the big ones, in a seeded order."""
        specs = []
        for name, (d, objs, homs, singles) in self.docs.items():
            pairs = [(ai, bi) for ai in range(len(objs)) for bi in range(len(objs))]
            specs += [("unit", name, ai, bi) for ai, bi in pairs]
            if name in SAMPLED:
                blocks = [(bi, ci, gi) for bi, b in enumerate(objs) for ci, c in enumerate(objs)
                          for gi in range(len(homs[(b, c)]))]
                specs += [("assoc", name, bi, ci, gi)
                          for bi, ci, gi in self.rng.sample(blocks, SAMPLED_ASSOC)]
                continue
            specs += [("hom", name, ai, bi) for ai, bi in pairs]
            specs += [
                ("assoc", name, bi, ci, gi)
                for bi, b in enumerate(objs) for ci, c in enumerate(objs)
                if (name, str(b), str(c)) not in SKIPPED_BLOCKS
                for gi in range(len(homs[(b, c)]))
            ]
            specs += [
                ("product", name, si, ti, ri, fi)
                for si, sa in enumerate(singles) for ti in range(len(singles))
                for ri, src in enumerate(objs) for fi in range(len(homs[(src, sa)]))
            ]
        specs += [("count", "group", n, l) for n in (1, 2, 3) for l in (1, 2, 3)]
        specs += [("count", "monoid", n, l) for n in (1, 2, 3) for l in (1, 2, 3)]
        specs += [("count", "operad", k, k) for k in (2, 3, 4, 5)]
        self.rng.shuffle(specs)
        return specs

    def job(self, spec, index):
        key = "/".join(str(x) for x in spec)
        return getattr(self, "_" + spec[0])(key, *spec[1:])

    # -- job bodies ------------------------------------------------------

    def _hom(self, key, name, ai, bi):
        d, objs, _, _ = self.docs[name]
        a, b = objs[ai], objs[bi]
        size = hom_count(name, [s.name for s in a.sorts], [s.name for s in b.sorts], BOUND)
        return Job(key, lambda: len(theory_cat.hom_enumerate(a, b, d, BOUND)), expect(size))

    def _unit(self, key, name, ai, bi):
        d, objs, homs, _ = self.docs[name]
        a, b = objs[ai], objs[bi]
        ms = homs[(a, b)]
        if name in SAMPLED:
            ms = random.Random(key).sample(ms, min(SAMPLE_F, len(ms)))

        def run():
            compose = theory_cat.compose
            ida, idb = theory_cat.identity(a), theory_cat.identity(b)
            return all(compose(d, idb, f) == f and compose(d, f, ida) == f for f in ms)

        return Job(key, run, expect(True))

    def _assoc(self, key, name, bi, ci, gi):
        d, objs, homs, singles = self.docs[name]
        b, c = objs[bi], objs[ci]
        g = homs[(b, c)][gi]
        fs = [f for a in objs for f in homs[(a, b)]]
        hs = [h for s in singles for h in homs[(c, s)]]
        if name in SAMPLED:
            rng = random.Random(key)
            fs = rng.sample(fs, min(SAMPLE_F, len(fs)))
            hs = rng.sample(hs, min(SAMPLE_H, len(hs)))
        hg_memo, left_memo, right_memo = self.memos.setdefault((name, bi, ci), ({}, {}, {}))

        def run():
            compose = theory_cat.compose
            hgs = []
            for h in hs:
                hg = hg_memo.get((h, g))
                if hg is None:
                    hg = hg_memo[(h, g)] = compose(d, h, g)
                hgs.append((h, hg))
            for f in fs:
                gf = compose(d, g, f)
                for h, hg in hgs:
                    left = left_memo.get((h, gf))
                    if left is None:
                        left = left_memo[(h, gf)] = compose(d, h, gf)
                    right = right_memo.get((hg, f))
                    if right is None:
                        right = right_memo[(hg, f)] = compose(d, hg, f)
                    if left != right:
                        return False
            return True

        return Job(key, run, expect(True))

    def _product(self, key, name, si, ti, ri, fi):
        d, objs, homs, singles = self.docs[name]
        src = objs[ri]
        sa, sb = singles[si], singles[ti]
        f = homs[(src, sa)][fi]

        def run():
            compose = theory_cat.compose
            prod, pa, pb = theory_cat.product(sa, sb)
            candidates = homs.get((src, prod), [])
            for g in homs[(src, sb)]:
                paired = theory_cat.tuple_(d, [f, g])
                if compose(d, pa, paired) != f or compose(d, pb, paired) != g:
                    return False
                matches = [
                    h for h in candidates
                    if compose(d, pa, h) == f and compose(d, pb, h) == g
                ]
                # the pairing is the unique match whenever it lies in the
                # enumerated fragment, and nothing matches otherwise
                if paired in candidates:
                    if matches != [paired]:
                        return False
                elif matches:
                    return False
            return True

        return Job(key, run, expect(True))

    def _count(self, key, family, n, length):
        d, sort = self.count_docs[family]
        if family == "operad":
            sort = d.sort(f"P{n}")
            ctx = signature.Context((signature.Var("m", d.sort("P2")),))
            want = catalan(n - 1)
        else:
            ctx = signature.Context.of(*((f"x{i}", sort) for i in range(n)))
            want = (reduced_words if family == "group" else monoid_words)(n, length)
        return Job(key, lambda: len(signature.enumerate_terms(ctx, sort, d, length)),
                   expect(want))
