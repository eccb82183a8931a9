"""msat job-stream benchmark.

msat is used as a verifier: a stream of jobs, each one call returning one
verdict, runs in a closed loop with a single client, one job at a time,
in a fresh interpreter per workload run.  Every answer is checked against
a known answer (see `jobs.py`).

    python3 perfbench/run.py --workload theory-laws --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-golden      # rewrite golden.json
    python3 perfbench/run.py --record-digests     # rewrite input_digests.json

The seed draws a round: a fixed list of jobs in a seeded order, where
seeded samples stand in only for sets too big to run in full (each
workload module says which).  The run repeats the
round on fresh state (new doctrines, models and inputs, so no cache
carries over) until `--seconds` have passed, at least twice (or a
workload module's own MIN_ROUNDS), and
every repeat must give the same answers.

Times are scaled to a reference CPU speed.  On a shared virtual machine
the speed of pure-Python code drifts by tens of percent for minutes at a
time, and shifts by as much within seconds, so raw wall-clock times of
one job repeated for a minute spread by a third.  After every job the run
times a fixed pure-Python tick (outside the job's own timing), one more
per TICK_EVERY_S the job ran.  Each job's time is multiplied by the speed
factor of the ticks run within TICK_WINDOW_S of it, TICK_REFERENCE_S times
their number over their total time, which reads 1.0 on a machine where a
tick takes TICK_REFERENCE_S.  A job's time to verdict is then its best
scaled time over the rounds.  The raw figures are printed beside the
scaled ones.

The run prints human-readable lines and, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
measures untraced rounds, then one more round on fresh state with the
layers wrapped (`tracer.py`), requires the same verdicts, and reports the
per-layer metrics (raw, unscaled seconds) and the tracing overhead; the
per-job spans go to `.bench_build/spans-<workload>-seed<seed>.json`.

msat is imported from `src/` of the checkout that holds this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("theory-laws", "model-checks", "strictify", "cli-session")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
SETUP_TICKS = 40
# the tick's duration on the reference machine; changing tick() or this
# constant rescales every time the benchmark reports
TICK_REFERENCE_S = 200e-6
TICK_EVERY_S = 0.05
TICK_WINDOW_S = 0.5
DIGESTS_PATH = os.path.join(HERE, "input_digests.json")
DIGEST_SEEDS = range(1, 21)


def tick() -> float:
    """Seconds for a fixed pure-Python task (tuple building, hashing, dict
    traffic) that tracks the interpreter's current speed.  The garbage
    collector is held off meanwhile, so a collection of the workload's
    heap is never charged to the tick."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        for i in range(300):
            key = ((i % 97, i % 13), i)
            table[key] = table.get(key, 0) + hash(key) % 7
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(tick_seconds: float, ticks: int) -> float:
    return ticks * TICK_REFERENCE_S / tick_seconds


def _module(workload):
    return importlib.import_module(workload.replace("-", "_"))


def _new_workload(workload, seed, workdir):
    mod = _module(workload)
    if workload == "cli-session":
        return mod.Workload(seed, workdir)
    return mod.Workload(seed)


def setup(workload, seed, workdir):
    """Import msat, build the workload's doctrines, models and inputs, draw
    the round and build its first job.  Returns the round's plan and the
    scaled seconds from before the import until the first job is ready;
    ticks just before and after set the speed factor."""
    ticks = sum(tick() for _ in range(SETUP_TICKS // 2))
    t0 = perf_counter()
    import msat

    if os.path.dirname(os.path.abspath(msat.__file__)) != os.path.join(SRC, "msat"):
        raise SystemExit(f"perfbench: msat imported from {msat.__file__}, not {SRC}")
    wl = _new_workload(workload, seed, workdir)
    plan = wl.round()
    wl.job(plan[0], 0)
    elapsed = perf_counter() - t0
    ticks += sum(tick() for _ in range(SETUP_TICKS // 2))
    return plan, elapsed * speed_factor(ticks, SETUP_TICKS)


def input_digest(plan) -> str:
    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()


class Outcome:
    __slots__ = ("key", "latency_s", "speed", "ok", "complete", "answer", "error")

    def __init__(self, key, latency_s, ok, complete, answer, error):
        self.key = key
        self.latency_s = latency_s
        self.speed = 1.0  # the speed factor around the job, set after the round
        self.ok = ok
        self.complete = complete
        self.answer = answer
        self.error = error


class Round:
    """The outcomes of one pass over the plan and its mean speed factor."""

    def __init__(self, outcomes, speed):
        self.outcomes = outcomes
        self.speed = speed

    def raw_s(self):
        return sum(o.latency_s for o in self.outcomes)

    def scaled_s(self):
        return sum(o.latency_s * o.speed for o in self.outcomes)


def local_speeds(starts, ends, tick_s, tick_n):
    """Each job's speed factor from the ticks run after the jobs that
    start within TICK_WINDOW_S before its start or after its end."""
    sums, counts = [0.0], [0]
    for x, n in zip(tick_s, tick_n):
        sums.append(sums[-1] + x)
        counts.append(counts[-1] + n)
    out = []
    for start, end in zip(starts, ends):
        lo = bisect.bisect_left(starts, start - TICK_WINDOW_S)
        hi = bisect.bisect_right(starts, end + TICK_WINDOW_S)
        out.append(speed_factor(sums[hi] - sums[lo], counts[hi] - counts[lo]))
    return out


def run_round(wl, specs, tracer=None, plant=False) -> Round:
    """One closed-loop pass over the round's jobs, one at a time."""
    outcomes = []
    starts, ends, tick_s, tick_n = [], [], [], []
    for index, spec in enumerate(specs):
        job = wl.job(spec, index)
        if plant and index == 0:
            job.check = _planted(job.check)
        if tracer is not None:
            tracer.begin_job(job.key)
        t = perf_counter()
        try:
            answer, error = job.run(), None
        except Exception as err:  # a raising job is a failed job, not a crash
            answer, error = None, f"{type(err).__name__}: {err}"
        dt = perf_counter() - t
        if tracer is not None:
            tracer.end_job(dt)
        ok, complete = (False, False) if error else job.check(answer)
        outcomes.append(Outcome(job.key, dt, ok, complete, repr(answer), error))
        # one tick per job and one more per TICK_EVERY_S of its run time, so
        # a factor weighs the speed over time, not over jobs
        n = 1 + int(dt / TICK_EVERY_S)
        starts.append(t)
        ends.append(t + dt)
        tick_s.append(sum(tick() for _ in range(n)))
        tick_n.append(n)
    for o, speed in zip(outcomes, local_speeds(starts, ends, tick_s, tick_n)):
        o.speed = speed
    return Round(outcomes, speed_factor(sum(tick_s), sum(tick_n)))


def fresh_workload(args, workdir):
    """New workload state for a round.  The previous round's state is
    dropped first, so every round starts from the same heap and no cache
    carries over."""
    gc.collect()
    return _new_workload(args.workload, args.seed, workdir)


def run_rounds(args, plan, workdir, seconds, min_rounds):
    """Repeat the round on fresh workload state until `seconds` have
    passed and at least `min_rounds` rounds ran."""
    start = perf_counter()
    rounds = []
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        rounds.append(run_round(fresh_workload(args, workdir), plan, plant=args.plant_wrong))
    return rounds


def job_times(rounds):
    """Each job's scaled time to verdict: its best over the rounds.  The
    speed factor corrects the drift around the job; a job that was slowed
    by a burst shorter than a tick's spacing only needs one clean repeat."""
    return [
        min(r.outcomes[i].latency_s * r.outcomes[i].speed for r in rounds)
        for i in range(len(rounds[0].outcomes))
    ]


def _mismatches(reference, rounds):
    """Keys of jobs whose answer differs between `reference` and a round."""
    return sorted({a.key for r in rounds for a, b in zip(reference.outcomes, r.outcomes)
                   if a.answer != b.answer})


def _planted(check):
    """A wrong expectation: the right answer is reported as wrong."""

    def wrong(answer):
        ok, complete = check(answer)
        return (not ok), complete

    return wrong


def _setup_samples(workload, seed, first_sample):
    samples = [first_sample]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def machine_record(load_before):
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    }


def _say(line):
    print(line, flush=True)


def _report_failures(outcomes):
    bad = [o for o in outcomes if not o.ok]
    for o in bad[:5]:
        print(f"perfbench: wrong answer in job {o.key}: {o.error or o.answer}", file=sys.stderr)
    return len(bad)


def _digest_note(workload, seed, digest):
    baseline = None
    if os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            baseline = json.load(fh).get(workload, {}).get(str(seed))
    if baseline is None:
        return f"input_digest: {digest} (no recorded baseline for this seed)"
    if baseline == digest:
        return f"input_digest: {digest} (same as the recorded baseline)"
    return (f"input_digest: {digest} DIFFERS from the recorded baseline {baseline}: "
            "the inputs changed, do not compare these numbers with the baseline's")


def run_workload(args, workdir):
    load_before = os.getloadavg()
    plan, setup_first = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0
    digest = input_digest(plan)
    if args.trace:
        result = _traced(args, plan, workdir)
    else:
        result = _untraced(args, plan, setup_first, workdir)
    _say(f"workload: {args.workload} seed: {args.seed} seconds: {args.seconds} "
         f"trace: {args.trace}")
    _say(_digest_note(args.workload, args.seed, digest))
    _say("machine: " + json.dumps(machine_record(load_before), sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        _say(f"{name}: {value:.6g} {unit}")
    for line in result.get("notes", []):
        _say(line)
    attempted, failed = result["attempted"], result["failed"]
    _say(f"fail_rate: {failed / attempted:.6g} share ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0 and result.get("consistent", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }), flush=True)
    return 0


def _untraced(args, plan, setup_first, workdir):
    min_rounds = getattr(_module(args.workload), "MIN_ROUNDS", MIN_ROUNDS)
    rounds = run_rounds(args, plan, workdir, args.seconds, min_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [o for r in rounds for o in r.outcomes]
    failed = _report_failures(outcomes)
    mismatched = _mismatches(rounds[0], rounds[1:])
    for key in mismatched[:5]:
        print(f"perfbench: answer changed between repeats in job {key}", file=sys.stderr)
    times = job_times(rounds)
    lat = [x * 1000.0 for x in times]
    n = len(times)
    setups = _setup_samples(args.workload, args.seed, setup_first)
    metrics = {
        "jobs_per_s": (n / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
        "complete_rate": (sum(o.complete for o in outcomes) / len(outcomes), "share"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = statistics.median(r.raw_s() for r in rounds)
    notes = [
        f"jobs: {n} per round, {len(rounds)} rounds; "
        f"{sum(1 for x in lat if x > metrics['latency_p90_ms'][0])} beyond p90",
        "rounds (raw verdict s x mean speed factor -> scaled s): " + " ".join(
            f"{r.raw_s():.3f}x{r.speed:.3f}->{r.scaled_s():.3f}" for r in rounds),
        f"raw jobs_per_s: {n / raw:.6g} 1/s (median round, unscaled)",
        "setup samples s (scaled): " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return {"metrics": metrics, "attempted": len(outcomes), "failed": failed,
            "consistent": not mismatched, "notes": notes}


def _traced(args, plan, workdir):
    import tracer as tracing

    plain = run_rounds(args, plan, workdir, args.seconds / 2.0, 1)
    fresh = fresh_workload(args, workdir)
    tr = tracing.Tracer((os.path.join(SRC, "msat"), HERE))
    tracing.install(tr)
    try:
        traced = run_round(fresh, plan, tracer=tr, plant=args.plant_wrong)
    finally:
        tr.uninstall()
    outcomes = [o for r in plain for o in r.outcomes] + traced.outcomes
    failed = _report_failures(outcomes)
    mismatched = _mismatches(traced, plain)
    for key in mismatched[:5]:
        print(f"perfbench: traced verdict differs from untraced in job {key}", file=sys.stderr)
    metrics = {name: value for name, value in tracing.per_layer_metrics(tr).items()}
    untraced_s = sum(job_times(plain))
    traced_s = traced.scaled_s()
    metrics["bench.tracing.overhead"] = (traced_s / untraced_s - 1.0, "share")
    wall = sum(s["wall_s"] for s in tr.spans)
    # the jobs' own code outside every traced call: the memo lookups of
    # the theory-laws jobs, the checking loops of the others
    body = sum(s["body_self_s"] for s in tr.spans)
    shares = sorted(
        [(name, rec.self_s) for name, rec in tr.records.items() if rec.self_s > 0]
        + [("job bodies", body)],
        key=lambda p: -p[1],
    )[:6]
    n = len(traced.outcomes)
    if args.workload == "theory-laws":
        eq = tr.records["theory_cat.morphism_eq"].self_s
        shares.append(("c01 hot spot: theory_cat.morphism_eq + job bodies", eq + body))
    notes = [
        f"jobs: {n} per round; {len(plain)} untraced rounds, 1 traced round; "
        f"verdicts {'identical' if not mismatched else 'DIFFER'}",
        f"tracing overhead: scaled jobs_per_s {n / untraced_s:.4g} untraced "
        f"vs {n / traced_s:.4g} traced",
        "hot spots (self time share of traced job time): " + ", ".join(
            f"{name} {s / wall:.0%}" for name, s in shares),
    ]
    spans_path = os.path.join(ROOT, ".bench_build", f"spans-{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tr.spans, fh)
    notes.append(f"per-job spans: {len(tr.spans)} written to {spans_path}")
    return {"metrics": metrics, "attempted": len(outcomes), "failed": failed,
            "consistent": not mismatched, "notes": notes}


# -- multi-workload commands ---------------------------------------------------


def _child(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def run_all(args):
    """Each workload in turn, in its own fresh interpreter."""
    for workload in WORKLOADS:
        lines, result = _child(workload, args.seed, args.seconds, args.trace)
        attempted, failed = result["attempted"], result["failed"]
        print(f"== {workload} (correct: {result['correct']})")
        for line in lines[:-1]:
            if line.startswith(("input_digest", "machine", "jobs:", "raw ", "tracing",
                                "hot spots")):
                print("  " + line)
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_rate':<48} {failed / attempted:>14.6g} share")
    return 0


def self_check(args):
    """Plant one wrong expectation per workload and require fail_rate > 0."""
    status = 0
    for workload in WORKLOADS:
        _, result = _child(workload, args.seed, 1, 0, ("--plant-wrong",))
        planted_seen = result["failed"] > 0 and not result["correct"]
        print(f"{workload}: planted wrong answer -> failed {result['failed']} of "
              f"{result['attempted']} ({'detected' if planted_seen else 'MISSED'})")
        status |= 0 if planted_seen else 1
    return status


def record_digests(workdir):
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for seed in DIGEST_SEEDS:
            out[workload][str(seed)] = input_digest(_new_workload(workload, seed, workdir).round())
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong", action="store_true",
                    help="flip the expectation of the first job (self-check)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "msat", "__init__.py")):
        print(f"perfbench: no msat sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.all:
        return run_all(args)
    if args.self_check:
        return self_check(args)
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    try:
        if args.record_golden:
            import cli_session

            golden = cli_session.record_golden(workdir)
            with open(cli_session.GOLDEN_PATH, "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        if args.record_digests:
            return record_digests(workdir)
        if args.workload is None:
            ap.error("--workload is required")
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
