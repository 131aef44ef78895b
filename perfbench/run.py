"""Performance benchmark of the dynamics engine: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mesh_best --seed 0 --seconds 30 --trace 0

The seed generates the workload's inputs; the program under test only sees
the generated games.  Set-up (input generation, fleet start, a bounded
warm-up) is repeated ``SETUP_REPEATS`` times and reported as a median.  The
timed phase then runs passes over the workload's jobs, back to back in one
closed loop, until ``--seconds`` have elapsed; ``run_s`` is the time of one
pass, each job's time taken as its median over the passes.  Every job is
checked outside the timed phase (see ``METHODS.md``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced passes, checks that their trajectories agree, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
DEFAULT_SEED = 0
FINGERPRINTS = HERE / "fingerprints.json"


@dataclass
class Pass:
    job_seconds: list[float]
    outcomes: list[workloads.Outcome]
    tracer: layers.Tracer | None = None

    @property
    def seconds(self) -> float:
        return sum(self.job_seconds)


def run_passes(prepared: workloads.Prepared, seconds: float, trace: bool = False) -> list[Pass]:
    """Passes over every job, back to back, until ``seconds`` have elapsed (at least one)."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer = layers.Tracer() if trace else None
        job_seconds, outcomes = [], []
        gc.collect()
        with layers.traced(tracer) if tracer else contextlib.nullcontext():
            for job in prepared.jobs:
                t0 = time.perf_counter()
                outcomes.append(workloads.run_job(job, prepared.config))
                job_seconds.append(time.perf_counter() - t0)
        passes.append(Pass(job_seconds, outcomes, tracer))
    return passes


def pass_seconds(passes: list[Pass]) -> float:
    """One pass's time, each job's time taken as its median over ``passes``.

    A burst of contention on a shared host slows a few jobs of one pass;
    the per-job median drops it where the median of pass totals would not.
    """
    return sum(statistics.median(times) for times in zip(*(p.job_seconds for p in passes)))


@dataclass
class Verdict:
    attempted: int
    failed: int
    correct: bool
    verify_s: float
    notes: list[str]


def verify(prepared: workloads.Prepared, passes: list[Pass], expected: list | None) -> Verdict:
    """Check the first pass with the workload's oracle, then every job against it.

    A job counts as verified when it converged, passed the oracle, repeated
    the first pass's fingerprint exactly and, when a committed fingerprint
    exists for the seed, matched it too.  A BR cycle or a scoring error makes
    a job unsuccessful; an oracle, replay, repeat or committed-fingerprint
    mismatch also makes the run incorrect.
    """
    workload, jobs, config = prepared.workload, prepared.jobs, prepared.config
    notes: list[str] = []
    first = passes[0].outcomes
    reference = [workloads.fingerprint(o) for o in first]
    t0 = time.perf_counter()
    good = []
    for index, (job, outcome) in enumerate(zip(jobs, first)):
        if not workloads.succeeded(outcome):
            notes.append(f"job {index} unsuccessful: {reference[index]}")
            good.append(False)
        elif not workload.check(job, outcome, config):
            notes.append(f"job {index} failed the {workload.check.__name__} oracle")
            good.append(False)
        else:
            good.append(True)
    verify_s = time.perf_counter() - t0
    correct = all(good[i] or not workloads.succeeded(o) for i, o in enumerate(first))
    if expected is not None and expected != reference:
        bad = [
            i for i, fp in enumerate(reference) if i >= len(expected) or expected[i] != fp
        ]
        notes.append(f"jobs {bad} differ from the committed fingerprint")
        good = [g and i not in bad for i, g in enumerate(good)]
        correct = False
    verified = 0
    for number, p in enumerate(passes):
        for index, outcome in enumerate(p.outcomes):
            same = workloads.fingerprint(outcome) == reference[index]
            if not same:
                notes.append(f"pass {number} job {index} differs from pass 0")
                correct = False
            verified += good[index] and same
    attempted = len(passes) * len(jobs)
    return Verdict(attempted, attempted - verified, correct, verify_s, notes)


def _cpu_counters() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of all CPU time the hypervisor stole between two /proc/stat reads."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def load_committed(workload: str, seed: int) -> list | None:
    if not FINGERPRINTS.exists():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))


def write_committed(workload: str, seed: int, reference: list) -> None:
    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    data.setdefault(workload, {})[str(seed)] = reference
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _ratio(part: float, whole: float, empty: float) -> float:
    return part / whole if whole else empty


def layer_metrics(prepared: workloads.Prepared, plain: list[Pass], traced: list[Pass],
                  verdict: Verdict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the traced passes, plus a share table for the report."""
    totals = [p.tracer.totals() for p in traced if p.tracer is not None]

    def med(name: str, key: str) -> float:
        return statistics.median(t[name][key] for t in totals)

    def count(name: str, key: str) -> int:
        return int(totals[0][name][key])

    first = traced[0].outcomes
    engine: dict[str, int] = {}
    moves = steps = hits = misses = 0
    for outcome in first:
        r = outcome.result
        if r is None:
            continue
        moves, steps = moves + r.moves, steps + r.steps
        hits, misses = hits + r.schedule_hits, misses + r.schedule_misses
        if r.engine_stats is not None:
            for key, value in vars(r.engine_stats).items():
                engine[key] = engine.get(key, 0) + value
    ev: dict[str, int] = {}
    for outcome in first:
        if outcome.evaluator is not None:
            for key in ("batches", "tasks", "bytes_sent", "bytes_received",
                        "retries", "failures", "fallbacks"):
                ev[key] = ev.get(key, 0) + getattr(outcome.evaluator, key)
    remote = prepared.config.backend == "remote"
    pool_ev = {} if remote else ev
    remote_ev = ev if remote else {}

    run_s = med("dynamics.run", "time")
    self_s = {
        "best_response": med("best_response.kernel", "self"),
        "parallel": med("parallel.evaluate", "self"),
        "remote": med("remote.evaluate", "self"),
        "incremental": med("incremental.residual", "self") + med("incremental.apply", "self"),
        "shortest_paths": sum(
            med(f"shortest_paths.{s}", "self") for s in ("decremental", "apsp", "dijkstra_rows")
        ),
        "dynamics": med("dynamics.run", "self"),
    }
    repairs = engine.get("residual_repairs", 0)
    fallbacks = engine.get("repair_fallbacks", 0)
    plain_s = pass_seconds(plain)
    traced_s = pass_seconds(traced)
    s, c, b, r = "s", "count", "bytes", "ratio"
    metrics: dict[str, tuple[float, str]] = {
        "best_response.kernel_s": (med("best_response.kernel", "time"), s),
        "best_response.kernel_calls": (count("best_response.kernel", "calls"), c),
        "parallel.evaluate_s": (med("parallel.evaluate", "time"), s),
        "parallel.batches": (pool_ev.get("batches", 0), c),
        "parallel.tasks": (pool_ev.get("tasks", 0), c),
        "parallel.bytes_sent": (pool_ev.get("bytes_sent", 0), b),
        "parallel.fallbacks": (pool_ev.get("fallbacks", 0), c),
        "remote.evaluate_s": (med("remote.evaluate", "time"), s),
        "remote.batches": (remote_ev.get("batches", 0), c),
        "remote.tasks": (remote_ev.get("tasks", 0), c),
        "remote.bytes_sent": (remote_ev.get("bytes_sent", 0), b),
        "remote.bytes_received": (remote_ev.get("bytes_received", 0), b),
        "remote.retries": (remote_ev.get("retries", 0), c),
        "remote.failures": (remote_ev.get("failures", 0), c),
        "incremental.residual_self_s": (med("incremental.residual", "self"), s),
        "incremental.apply_s": (med("incremental.apply", "time"), s),
        "incremental.apsp_rebuilds": (engine.get("apsp_rebuilds", 0), c),
        "incremental.residual_repairs": (repairs, c),
        "incremental.repair_fallbacks": (fallbacks, c),
        "incremental.residual_cache_hits": (engine.get("residual_cache_hits", 0), c),
        "incremental.move_updates": (engine.get("move_updates", 0), c),
        "incremental.repair_success_ratio": (_ratio(repairs, repairs + fallbacks, 1.0), r),
        "shortest_paths.apsp_s": (med("shortest_paths.apsp", "time"), s),
        "shortest_paths.apsp_calls": (count("shortest_paths.apsp", "calls"), c),
        "shortest_paths.dijkstra_rows_s": (med("shortest_paths.dijkstra_rows", "time"), s),
        "shortest_paths.dijkstra_sources": (count("shortest_paths.dijkstra_rows", "items"), c),
        "shortest_paths.decremental_self_s": (med("shortest_paths.decremental", "self"), s),
        "dynamics.self_s": (self_s["dynamics"], s),
        "dynamics.moves": (moves, c),
        "dynamics.steps": (steps, c),
        "dynamics.proposal_hit_ratio": (_ratio(hits, hits + misses, 0.0), r),
        "equilibria.verify_s": (verdict.verify_s, s),
        "trace.overhead_ratio": (traced_s / plain_s, r),
        "trace.coverage_ratio": (_ratio(run_s - self_s["dynamics"], run_s, 0.0), r),
    }
    table = [f"GameSession.run total per pass (the base of every share): {run_s:.4f} s"]
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        table.append(
            f"  {layer:<15} self {seconds:9.4f} s = {100 * _ratio(seconds, run_s, 0.0):5.1f}%"
            " of GameSession.run"
        )
    return metrics, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-fingerprints", action="store_true",
        help="record this seed's trajectory fingerprints in fingerprints.json",
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    setups: list[float] = []
    prepared: workloads.Prepared | None = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if prepared is not None:
            prepared.close()
        t0 = time.perf_counter()
        prepared = workloads.prepare(workload, args.seed)
        setups.append(time.perf_counter() - t0)
    assert prepared is not None

    with prepared:
        load_before, cpu_before = os.getloadavg(), _cpu_counters()
        if args.trace:
            plain = run_passes(prepared, args.seconds / 2)
            traced = run_passes(prepared, args.seconds / 2, trace=True)
            passes = plain + traced
        else:
            passes = run_passes(prepared, args.seconds)
        cpu_after, load_after = _cpu_counters(), os.getloadavg()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.write_fingerprints:
            write_committed(
                workload.name, args.seed, [workloads.fingerprint(o) for o in passes[0].outcomes]
            )
        verdict = verify(prepared, passes, load_committed(workload.name, args.seed))

        print(f"workload {workload.name} seed {args.seed}: {len(prepared.jobs)} jobs per pass, "
              f"{len(passes)} passes, pass times "
              + " ".join(f"{p.seconds:.3f}" for p in passes))
        for note in verdict.notes:
            print("  check:", note)
        print(json.dumps({"diagnostics": {
            "steal_share": steal_share(cpu_before, cpu_after),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "setup_times_s": setups,
            "sub_seeds": [job.sub_seed for job in prepared.jobs],
            "skipped_sub_seeds": [list(job.skipped) for job in prepared.jobs],
        }}))
        if args.trace:
            values, table = layer_metrics(prepared, plain, traced, verdict)
            print("\n".join(table))
        else:
            values = {
                "run_s": (pass_seconds(passes), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "success_ratio": (
                    (verdict.attempted - verdict.failed) / verdict.attempted, "ratio"
                ),
            }
    metrics: dict[str, Any] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
    }
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


def stop_helpers() -> None:
    """Stop and wait for multiprocessing's resource tracker, if one was started.

    The shared-memory pool starts the tracker on first use and it outlives
    every pool; left alone it exits only after this process does, so a
    caller waiting on this process could still see it running.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _on_sigterm(signum: int, frame: object, owner: int = os.getpid()) -> None:
    """SIGTERM unwinds the owner through its clean-ups; forked children just exit."""
    if os.getpid() != owner:
        os._exit(128 + signum)
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
