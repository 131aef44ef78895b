"""Fast checks of the performance benchmark on tiny instances.

Each workload is shrunk to two small jobs, so the whole file runs in
seconds: a smoke run of every workload through set-up, a pass and the
outcome checks, the fingerprint comparison, the tracer's restore of
every function it wraps, and that no helper process outlives a run.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import instances
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent

TINY = {
    "mesh_best": lambda rng: instances.mesh_start(rng, 3, 4, 0.6, 1.0),
    "gateway_cold": lambda rng: instances.gateway_start(rng, 24, 4, 0.3, 2.0),
    "localized_fleet": lambda rng: instances.localized_start(rng, 60, 5, 3),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], jobs=2, build=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_verifies(name):
    with workloads.prepare(tiny(name), seed=0) as prepared:
        passes = run.run_passes(prepared, 0.0)
        verdict = run.verify(prepared, passes, None)
    assert verdict.notes == []
    assert verdict.correct and verdict.attempted == 2 and verdict.failed == 0


def test_an_agent_over_the_candidate_budget_fails_its_job_without_a_crash():
    workload = dataclasses.replace(
        tiny("mesh_best"), config=dict(response="best", schedule="batched", max_candidates=2)
    )
    with workloads.prepare(workload, seed=0) as prepared:
        passes = run.run_passes(prepared, 0.0)
        verdict = run.verify(prepared, passes, None)
    assert verdict.correct and verdict.attempted == 2 and verdict.failed == 2
    assert all("ValueError" in note for note in verdict.notes)


def test_fingerprint_repeats_and_a_mismatch_fails_the_job():
    workload = tiny("gateway_cold")
    with workloads.prepare(workload, seed=3) as prepared:
        passes = run.run_passes(prepared, 0.0)
        reference = [workloads.fingerprint(o) for o in passes[0].outcomes]
        assert run.verify(prepared, passes, reference).correct
        doctored = [dict(reference[0], moves=reference[0]["moves"] + 1), reference[1]]
        verdict = run.verify(prepared, passes, doctored)
    assert not verdict.correct and verdict.failed == 1
    with workloads.prepare(workload, seed=3) as again:
        repeat = run.run_passes(again, 0.0)
    assert [workloads.fingerprint(o) for o in repeat[0].outcomes] == reference


def test_committed_fingerprints_cover_every_workload():
    committed = json.loads((HERE / "fingerprints.json").read_text())
    for name, workload in workloads.WORKLOADS.items():
        assert str(run.DEFAULT_SEED) in committed[name]
        for jobs in committed[name].values():
            assert len(jobs) == workload.jobs


def test_tracer_restores_every_binding_and_matches_untraced_runs():
    originals = {
        (owner, attr): owner.__dict__[attr]
        for bindings in layers.TRACED.values()
        for owner, attr in bindings
    }
    with workloads.prepare(tiny("gateway_cold"), seed=1) as prepared:
        plain = run.run_passes(prepared, 0.0)
        with pytest.raises(RuntimeError, match="boom"):
            with layers.traced(layers.Tracer()) as tracer:
                outcome = workloads.run_job(prepared.jobs[0], prepared.config)
                raise RuntimeError("boom")
        traced = run.run_passes(prepared, 0.0, trace=True)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{attr} was not restored"
    assert workloads.fingerprint(outcome) == workloads.fingerprint(plain[0].outcomes[0])
    assert [workloads.fingerprint(o) for o in traced[0].outcomes] == [
        workloads.fingerprint(o) for o in plain[0].outcomes
    ]
    totals = tracer.totals()
    assert totals["dynamics.run"]["calls"] == 1
    for entry in totals.values():
        assert 0.0 <= entry["self"] <= entry["time"] + 1e-9


def test_per_layer_metric_names_match_the_benchmark_definition():
    with workloads.prepare(tiny("gateway_cold"), seed=0) as prepared:
        plain = run.run_passes(prepared, 0.0)
        traced = run.run_passes(prepared, 0.0, trace=True)
        verdict = run.verify(prepared, plain + traced, None)
    metrics, _ = run.layer_metrics(prepared, plain, traced, verdict)
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in definition["per_layer"])
    assert metrics["trace.coverage_ratio"][0] > 0.5


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_no_helper_process_outlives_a_pool_run():
    script = textwrap.dedent("""
        import os, sys
        from pathlib import Path
        sys.path.insert(0, os.getcwd())
        import run, workloads, test_perfbench
        with workloads.prepare(test_perfbench.tiny("mesh_best"), seed=0) as prepared:
            run.run_passes(prepared, 0.0)
        run.stop_helpers()
        print([pid for task in Path("/proc/self/task").iterdir()
               for pid in (task / "children").read_text().split()])
    """)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
