"""The benchmark's workloads: inputs, backend, one job, and the outcome checks.

A *job* is one instance run to completion through a fresh
:class:`~repro.core.GameSession` (open, ``run``, close) that the benchmark
waits on; a *pass* runs every job of the workload once, back to back.  A
session is bound to one game, so each job pays its own lazy backend start
(pool fork, or fleet connect plus weights frame) inside the job.
:func:`prepare` generates the inputs from the seed, starts the worker
fleet when the workload has one, and makes a bounded warm-up run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import instances
from repro.core import GameSession, NetworkCreationGame, SimulationConfig, StrategyProfile
from repro.core.dynamics import DynamicsResult
from repro.core.equilibria import is_greedy_equilibrium, is_nash_equilibrium
from repro.core.parallel import EvaluatorError, EvaluatorStats
from repro.core.remote import local_workers

Build = Callable[[np.random.Generator], "tuple[NetworkCreationGame, StrategyProfile] | None"]


@dataclass(frozen=True)
class Job:
    """One generated instance: the game, its start profile and its sub-seed record."""

    game: NetworkCreationGame
    start: StrategyProfile
    sub_seed: int
    skipped: tuple[int, ...]


@dataclass(frozen=True)
class Outcome:
    """What one job produced; ``result`` is ``None`` when the run raised."""

    result: DynamicsResult | None
    evaluator: EvaluatorStats | None
    error: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    build: Build
    config: dict[str, Any]
    fleet: int
    check: Callable[["Job", Outcome, SimulationConfig], bool]


def _check_nash(job: Job, outcome: Outcome, config: SimulationConfig) -> bool:
    assert outcome.result is not None
    return is_nash_equilibrium(job.game, outcome.result.final_profile)


def _check_greedy(job: Job, outcome: Outcome, config: SimulationConfig) -> bool:
    assert outcome.result is not None
    return is_greedy_equilibrium(job.game, outcome.result.final_profile)


def _check_serial_replay(job: Job, outcome: Outcome, config: SimulationConfig) -> bool:
    """The same run serially in-process must match bit for bit (bytes aside)."""
    serial = run_job(job, config.replace(backend="local", endpoints=(), workers=1))
    return _without_bytes(fingerprint(serial)) == _without_bytes(fingerprint(outcome))


def _without_bytes(fp: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in fp.items() if k != "bytes_sent"}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mesh_best",
            jobs=12,
            build=lambda rng: instances.mesh_start(rng, 6, 8, 0.6, 1.0),
            config=dict(response="best", schedule="batched", workers=2),
            fleet=0,
            check=_check_nash,
        ),
        Workload(
            name="gateway_cold",
            jobs=4,
            build=lambda rng: instances.gateway_start(rng, 100, 6, 0.3, 2.0),
            config=dict(response="single", schedule="batched"),
            fleet=0,
            check=_check_greedy,
        ),
        Workload(
            name="localized_fleet",
            jobs=8,
            build=lambda rng: instances.localized_start(rng, 600, 9, 48),
            config=dict(
                response="single", schedule="batched", backend="remote", max_rounds=2
            ),
            fleet=2,
            check=_check_serial_replay,
        ),
    )
}

# Per-run overrides of the warm-up runs: one round over a few agents of every
# job, enough to start a backend and take every code path once, and spread
# over all jobs so the warm-up cost does not hinge on one instance.
WARMUP = dict(order=tuple(range(8)), max_rounds=1)


def run_job(job: Job, config: SimulationConfig, **overrides: Any) -> Outcome:
    """Run one job through its own session; a scoring error is an outcome, not a crash.

    ``ValueError`` is what an agent with more than ``max_candidates`` exact
    candidates raises; ``EvaluatorError`` a backend that failed for good.
    ``overrides`` are per-run config overrides of :meth:`GameSession.run`.
    """
    try:
        with GameSession(job.game, config) as session:
            result = session.run(job.start, rng=0, **overrides)
            stats = session.stats().evaluator_stats
    except (ValueError, EvaluatorError) as exc:
        return Outcome(None, None, f"{type(exc).__name__}: {exc}")
    return Outcome(result, stats)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(outcome: Outcome) -> dict[str, Any]:
    """Everything about a job's trajectory that must repeat exactly."""
    r = outcome.result
    if r is None:
        return {"error": outcome.error}
    costs = [float.hex(float(c)) for c in r.social_costs]
    return {
        "converged": r.converged,
        "cycle": r.cycle_detected,
        "moves": r.moves,
        "steps": r.steps,
        "costs": _digest(",".join(costs).encode()),
        "final_cost": costs[-1] if costs else None,
        "profile": _digest(np.packbits(r.final_profile.ownership).tobytes()),
        "engine": None if r.engine_stats is None else dataclasses.asdict(r.engine_stats),
        "hits": r.schedule_hits,
        "misses": r.schedule_misses,
        "bytes_sent": 0 if outcome.evaluator is None else outcome.evaluator.bytes_sent,
    }


def succeeded(outcome: Outcome) -> bool:
    """The run finished and converged (a BR cycle or a scoring error did not)."""
    r = outcome.result
    return r is not None and r.converged and not r.cycle_detected


@dataclass
class Prepared:
    """Generated jobs plus the running backend they share; close to stop the fleet."""

    workload: Workload
    jobs: list[Job]
    config: SimulationConfig
    stack: contextlib.ExitStack

    def close(self) -> None:
        self.stack.close()

    def __enter__(self) -> "Prepared":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate the seed's inputs, start the fleet and make the warm-up runs."""
    stack = contextlib.ExitStack()
    try:
        jobs = []
        for index in range(workload.jobs):
            drawn = instances.draw(seed, index, workload.build)
            game, start = drawn.value
            jobs.append(Job(game, start, drawn.sub_seed, drawn.skipped))
        endpoints = stack.enter_context(local_workers(workload.fleet))
        config = SimulationConfig(**workload.config, endpoints=tuple(endpoints))
        for job in jobs:
            run_job(job, config, **WARMUP)
    except BaseException:
        stack.close()
        raise
    return Prepared(workload, jobs, config, stack)
