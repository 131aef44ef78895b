"""Simulation configuration and the session that owns engines, caches and pools.

Every call of :func:`repro.core.dynamics.run_dynamics` used to build — and
tear down — its own :class:`~repro.core.incremental.IncrementalEngine` and
(with ``workers > 1``) its own :class:`~repro.core.parallel.ParallelEvaluator`
worker pool.  For sweeps that run dynamics dozens of times on one instance
(equilibrium sampling, PoA estimation) the pool start-up dominates at small
``n``.  This module gives the simulation surface one composable home:

``SimulationConfig``
    The frozen, validated bundle of every knob of a dynamics run — distance
    ``engine``, activation ``schedule``, ``workers``, ``response`` kind,
    ``order``, budgets, backend placement and the ``seed`` policy.  It is
    declared in :mod:`repro.core.config` (each field once, with the
    metadata every other layer derives from) and re-exported here.

``GameSession``
    A context manager scoped to ``(game, config)`` that lazily builds and
    **owns** the incremental engine, the batched schedule's proposal cache
    and — the point of the exercise — a *single* shared
    :class:`~repro.core.parallel.ParallelEvaluator`, reused across every
    run of the session.  ``run``, ``sample_equilibria`` and ``poa`` are the
    session-native equivalents of :func:`repro.core.dynamics.run_dynamics`,
    :func:`repro.core.poa.sample_equilibria` and
    :func:`repro.core.poa.estimate_poa`; :meth:`GameSession.stats` reports
    how many engines/evaluators the session actually created (exactly one
    each, however many runs are made) plus cumulative engine counters.

One override rule holds for every entry point — the session methods, the
module-level functions and the sweeps of :mod:`repro.analysis.experiments`:
besides its own run arguments, each takes ``**overrides`` of
:class:`SimulationConfig` fields, so a field is accepted everywhere because
it is declared in :mod:`repro.core.config`, and nowhere else.  The
module-level functions (``None`` meaning "not given") go through
:func:`_session_for`: with ``session=`` they run through that open session
with the overrides applied per run, otherwise they open a one-shot session
on ``SimulationConfig.merged(config, **overrides)``, so their lifecycle is
unchanged (everything a call creates, the call closes) while session users
amortize the pool across all runs of an instance.  A run through a session
is *bit-identical* — same trajectory, same
:class:`~repro.core.incremental.EngineStats` — to the same run through a
one-shot call, because the session resets (never reuses) engine state
between runs; only the worker pool survives.  The session is
also the backend plug-in point: ``config.backend`` selects the evaluator
implementation injected into every per-run engine — ``"local"`` (a
:class:`~repro.core.parallel.ParallelEvaluator` worker pool when
``workers > 1``) or ``"remote"`` (a
:class:`~repro.core.remote.RemoteEvaluator` over ``config.endpoints``
worker servers) — without touching any entry point.

Ownership rules (the invariants every layer must preserve):

1. **Whoever creates an engine or evaluator closes it — and nobody
   else.**  A one-shot entry point builds its own session and cleans up on
   return; a run through an explicit session closes nothing.
2. **Engines only close evaluators they created.**  A session-injected
   evaluator (local pool or remote connection set) survives
   :meth:`~repro.core.incremental.IncrementalEngine.close`; per-run engine
   teardown must never churn the session's pool.
3. **Sessions reset — never rebuild — engine state between runs**, so a
   session run is bit-identical (trajectory *and* stats) to a one-shot
   run; only pool/connection start-up is amortized.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, rng_from_state
from .config import KNOBS, TRAJECTORY_FIELDS, SimulationConfig, spawn_seeds
from .dynamics import (
    _TOL,
    DynamicsResult,
    _ProposalCache,
    _ResumeState,
    _run_session_loop,
)
from .equilibria import is_greedy_equilibrium, is_nash_equilibrium
from .game import NetworkCreationGame
from .incremental import EngineStats, IncrementalEngine
from .parallel import (
    EvaluatorBackend,
    EvaluatorError,
    EvaluatorStats,
    ParallelEvaluator,
    default_workers,
)
from .poa import PoAEstimate, _initial_profiles
from .social_optimum import social_optimum
from .strategy import StrategyProfile

if TYPE_CHECKING:  # import cycle: remote imports parallel which peers here
    from .best_response import BestResponseResult
    from .faults import FaultPlan
    from .remote import BreakerPolicy

__all__ = [
    "SimulationConfig",
    "GameSession",
    "SessionStats",
    "spawn_seeds",
    "resume_dynamics",
]


def check_session_call(
    session: "GameSession",
    game: NetworkCreationGame,
    config: "SimulationConfig | None",
) -> None:
    """Validate a module-level entry point's ``(game, config, session)`` combination.

    The guard :func:`_session_for` applies for every ``session=``-accepting
    entry point (:func:`repro.core.dynamics.run_dynamics`,
    :func:`repro.core.poa.sample_equilibria`,
    :func:`repro.core.poa.estimate_poa`).
    """
    if config is not None:
        raise ValueError("pass either config or session, not both")
    if session.game is not game:
        raise ValueError(
            "session is scoped to a different game: a GameSession's engine "
            "and caches are bound to the game it was opened on"
        )


@contextlib.contextmanager
def _session_for(
    game: NetworkCreationGame,
    config: "SimulationConfig | None",
    session: "GameSession | None",
    overrides: Mapping[str, Any],
) -> Iterator[tuple["GameSession", dict[str, Any]]]:
    """The session a module-level entry point runs through, and its run overrides.

    The one override rule of every entry point: ``overrides`` are
    :class:`SimulationConfig` fields, and ``None`` means "not given".  With
    an injected ``session`` (validated by :func:`check_session_call`) the
    given overrides apply per run — a session-scoped mismatch raises — and
    the session is left open.  Without one, a one-shot session on
    ``SimulationConfig.merged(config, **overrides)`` is opened and closed;
    the given overrides are yielded too (a no-op on a config that already
    holds them), so a method's own defaults yield to them on both paths.
    """
    given = {key: value for key, value in overrides.items() if value is not None}
    if session is not None:
        check_session_call(session, game, config)
        yield session, given
        return
    with GameSession(game, SimulationConfig.merged(config, **given)) as one_shot:
        yield one_shot, given


# Config fields a session cannot change per run: they shape the owned
# engine and worker pool, so changing them needs a fresh session.  A
# per-run "override" that equals the session's value is accepted (no-op).
_SESSION_SCOPED = tuple(name for name, knob in KNOBS.items() if knob.session)

# Entry-point round budgets applied when ``max_rounds`` is None ("not
# configured"): plain dynamics runs keep run_dynamics' historical 100,
# equilibrium sampling its historical 60.  (The convergence study in
# :mod:`repro.analysis.experiments` and the CLI's ``simulate`` resolve
# their own historical budgets, 40 and 60, against the same None.)
MAX_ROUNDS_RUN = 100
MAX_ROUNDS_SAMPLING = 60


class _SerialEvaluator:
    """The ladder's last rung: in-process serial scoring, nothing to fail.

    Scores each ``(agent, d_rest, strategy)`` task with the same pure
    :func:`~repro.core.best_response.score_response` call the pool and
    socket workers make, so results are bit-identical to every other
    backend.  It holds no processes and no sockets — the rung of last
    resort can always finish the batch.
    """

    __slots__ = ("_weights", "_alpha", "pools_started", "_batches", "_tasks")

    def __init__(self, weights: np.ndarray, alpha: float) -> None:
        self._weights = np.asarray(weights, dtype=np.float64)
        self._alpha = float(alpha)
        self.pools_started = 0
        self._batches = 0
        self._tasks = 0

    @classmethod
    def for_game(cls, game: NetworkCreationGame) -> "_SerialEvaluator":
        return cls(game.host.weights, game.alpha)

    @property
    def workers(self) -> int:
        return 1

    @property
    def is_running(self) -> bool:
        return False

    @property
    def stats(self) -> EvaluatorStats:
        return EvaluatorStats(
            backend="serial",
            batches=self._batches,
            tasks=self._tasks,
            pools_started=self.pools_started,
        )

    def evaluate(
        self,
        tasks: Iterable[tuple[int, np.ndarray, Sequence[int]]],
        response: str = "best",
        *,
        max_candidates: int = 22,
    ) -> "list[BestResponseResult]":
        from .best_response import score_response

        results = [
            score_response(
                d_rest,
                int(agent),
                self._weights[int(agent)],
                self._alpha,
                tuple(int(v) for v in strategy),
                response,
                max_candidates=max_candidates,
            )
            for agent, d_rest, strategy in tasks
        ]
        self._batches += 1
        self._tasks += len(results)
        return results

    def close(self) -> None:
        return None


def _primary_evaluator(
    game: NetworkCreationGame,
    cfg: "SimulationConfig",
    *,
    breaker: "BreakerPolicy | None",
) -> EvaluatorBackend:
    """The configured backend: a remote fleet client or a local worker pool.

    ``breaker`` arms the remote client's circuit breaker (the ladder passes
    one; ``failover="strict"`` deliberately runs without); the local pool
    has no endpoints to trip and ignores it.
    """
    if cfg.backend == "remote":
        from .remote import DEFAULT_BATCH_TIMEOUT, DEFAULT_MAX_RETRIES, RemoteEvaluator

        return RemoteEvaluator.for_game(
            game,
            endpoints=cfg.endpoints,
            batch_timeout=(
                DEFAULT_BATCH_TIMEOUT if cfg.batch_timeout is None else cfg.batch_timeout
            ),
            max_retries=(
                DEFAULT_MAX_RETRIES if cfg.max_retries is None else cfg.max_retries
            ),
            auth_token=cfg.auth_token,
            breaker=breaker,
            residual_encoding=cfg.residual_encoding,
        )
    return ParallelEvaluator.for_game(
        game, workers=cfg.workers, residual_encoding=cfg.residual_encoding
    )


class _FailoverLadder:
    """Supervised evaluator stack: remote → local pool → in-process serial.

    The ladder wraps the configured backend (the *primary* rung) and owns
    its fallbacks, built lazily and only on first descent.  A batch that
    fails terminally on the current rung — every endpoint dead and retries
    exhausted (:class:`~repro.core.remote.RemoteEvaluatorError` /
    ``OSError``), or the local pool broken beyond its one rebuild
    (:class:`~repro.core.parallel.PoolBrokenError`) — is re-run whole on
    the next rung down; scoring tasks are pure and results gather in
    submission order, so the re-run is bit-identical and the trajectory
    never notices the swap.  While degraded below a remote primary, every
    batch boundary polls :meth:`~repro.core.remote.RemoteEvaluator.revive`
    (which honors the circuit breaker's backoff, so the poll is free until
    a probe is due) and promotes back to the primary as soon as a probe
    succeeds.

    Stats keep the primary rung's ``backend`` label and sum the volume
    counters (``batches``/``tasks``/``pools_started``/``failures``/
    ``retries``) across rungs; ``fallbacks``/``promotions`` count the
    ladder's own moves.  Unknown attributes (``add_endpoint``,
    ``check_endpoints`` and the rest of the fleet-management surface)
    pass through to the primary rung, so ``GameSession.evaluator`` keeps
    its documented API under the ladder.
    """

    def __init__(self, game: NetworkCreationGame, cfg: "SimulationConfig") -> None:
        builders: list[Callable[[], Any]] = []
        if cfg.backend == "remote":
            from .remote import BreakerPolicy

            # Seeded from the config's root seed, so backoff jitter is as
            # reproducible as everything else the config derives.
            breaker = BreakerPolicy(seed=cfg.root_seed())
            builders.append(lambda: _primary_evaluator(game, cfg, breaker=breaker))
            builders.append(
                lambda: ParallelEvaluator.for_game(
                    game,
                    workers=default_workers(),
                    residual_encoding=cfg.residual_encoding,
                )
            )
        else:
            builders.append(lambda: _primary_evaluator(game, cfg, breaker=None))
        builders.append(lambda: _SerialEvaluator.for_game(game))
        self._builders = builders
        self._rungs: list[Any] = [None] * len(builders)
        self._level = 0
        self.fallbacks = 0
        self.promotions = 0
        self._fault_hook: Callable[[ParallelEvaluator, int], None] | None = None
        self._rung(0)  # the primary is the configured backend: built eagerly

    def _rung(self, level: int) -> Any:
        if self._rungs[level] is None:
            rung = self._builders[level]()
            if self._fault_hook is not None and isinstance(rung, ParallelEvaluator):
                rung.fault_hook = self._fault_hook
            self._rungs[level] = rung
        return self._rungs[level]

    @property
    def level(self) -> int:
        """Current rung index: 0 = primary backend, higher = degraded."""
        return self._level

    @property
    def fault_hook(self) -> "Callable[[ParallelEvaluator, int], None] | None":
        """Test-only injection seam, propagated to every pool rung."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(
        self, hook: "Callable[[ParallelEvaluator, int], None] | None"
    ) -> None:
        self._fault_hook = hook
        for rung in self._rungs:
            if isinstance(rung, ParallelEvaluator):
                rung.fault_hook = hook

    @property
    def workers(self) -> int:
        return self._rungs[self._level].workers

    @property
    def is_running(self) -> bool:
        return any(r.is_running for r in self._rungs if r is not None)

    @property
    def pools_started(self) -> int:
        return sum(r.pools_started for r in self._rungs if r is not None)

    @property
    def stats(self) -> EvaluatorStats:
        built = [r for r in self._rungs if r is not None]
        return dataclasses.replace(
            built[0].stats,
            batches=sum(r.stats.batches for r in built),
            tasks=sum(r.stats.tasks for r in built),
            pools_started=self.pools_started,
            bytes_sent=sum(r.stats.bytes_sent for r in built),
            bytes_received=sum(r.stats.bytes_received for r in built),
            failures=sum(r.stats.failures for r in built),
            retries=sum(r.stats.retries for r in built),
            fallbacks=self.fallbacks,
            promotions=self.promotions,
        )

    def evaluate(
        self,
        tasks: Iterable[tuple[int, np.ndarray, Sequence[int]]],
        response: str = "best",
        *,
        max_candidates: int = 22,
    ) -> "list[BestResponseResult]":
        # Materialize first: a rung may die mid-iteration, and the next
        # rung must re-run the *whole* batch.
        task_list = list(tasks)
        if self._level > 0:
            primary = self._rungs[0]
            if hasattr(primary, "revive") and primary.revive():
                self._level = 0
                self.promotions += 1
        while True:
            rung = self._rung(self._level)
            try:
                return rung.evaluate(
                    task_list, response, max_candidates=max_candidates
                )
            except (EvaluatorError, OSError):
                if self._level + 1 >= len(self._builders):
                    raise
                self._level += 1
                self.fallbacks += 1

    def close(self) -> None:
        for rung in self._rungs:
            if rung is not None:
                rung.close()

    def __getattr__(self, name: str) -> Any:
        # Fleet management (add_endpoint/remove_endpoint/check_endpoints)
        # passes through to the primary rung.  Private names never forward
        # (they would recurse through a half-built instance).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._rungs[0], name)


@dataclass(frozen=True)
class SessionStats:
    """What a :class:`GameSession` built and did over its lifetime.

    ``engines_created``/``evaluators_created`` count actual constructions —
    a session reuses both across runs, so they stay at (at most) 1 however
    many runs are made, which is exactly what the pool-amortization tests
    assert.  ``evaluator_pools_started`` counts worker-pool launches of the
    shared evaluator (lazy: 0 until a batch is actually dispatched) and
    ``engine_stats`` accumulates the per-run
    :class:`~repro.core.incremental.EngineStats` counters.

    ``evaluator_stats`` is the shared evaluator's own
    :class:`~repro.core.parallel.EvaluatorStats` — for the remote backend
    that includes fleet health: endpoints alive/total and the
    failure/retry/reconnect counters.  It is ``None`` until an evaluator
    exists, and :meth:`GameSession.close` snapshots it, so fleet health
    survives session teardown.
    """

    runs: int
    engines_created: int
    evaluators_created: int
    evaluator_pools_started: int
    evaluator_running: bool
    engine_stats: EngineStats
    schedule_hits: int
    schedule_misses: int
    evaluator_stats: "EvaluatorStats | None" = None


class GameSession:
    """Context manager owning the simulation machinery for one ``(game, config)``.

    The session lazily builds the
    :class:`~repro.core.incremental.IncrementalEngine` (reset — never
    rebuilt — between runs), the batched schedule's proposal cache and a
    single shared evaluator backend injected into the engine — a
    :class:`~repro.core.parallel.ParallelEvaluator` worker pool for
    ``config.backend="local"`` with ``workers > 1``, a
    :class:`~repro.core.remote.RemoteEvaluator` connection set for
    ``config.backend="remote"`` — so every run of the session reuses one
    pool (or one connection set: ``SessionStats.evaluator_pools_started``
    stays at 1 however many runs a sweep makes).  :meth:`close` (or
    context-manager exit) tears all of it down; engines never close an
    evaluator they did not create, so nothing a session owns is destroyed
    by the runs inside it.

    Under ``config.failover="ladder"`` (the default) the shared evaluator
    is wrapped in the degradation ladder (:class:`_FailoverLadder`):
    terminal backend failures descend remote → local pool → serial with
    bit-identical results, and a recovered fleet promotes back at a batch
    boundary.  ``failover="strict"`` injects the bare backend — today's
    fail-fast semantics.

    Per-run keyword overrides may change ``response``, ``order``,
    ``schedule``, ``max_rounds``, ``max_candidates``, ``seed`` and the
    checkpoint policy; the session-scoped fields (``engine``, ``workers``,
    ``repair_threshold``, ``backend``, ``endpoints``,
    ``residual_encoding``, ``batch_timeout``, ``max_retries``,
    ``failover`` and ``auth_token`` — each marked ``session=True`` in its
    :class:`~repro.core.config.Knob`) are fixed for the session's lifetime
    because the owned engine and evaluator are shaped by them (open a new
    session — or :meth:`SimulationConfig.replace` the config — to change
    those).
    """

    def __init__(
        self,
        game: NetworkCreationGame,
        config: SimulationConfig | None = None,
        **overrides: Any,
    ) -> None:
        config = SimulationConfig() if config is None else config
        self._game = game
        self._config = config.replace(**overrides)
        self._engine: IncrementalEngine | None = None
        self._evaluator: EvaluatorBackend | None = None
        self._cache: _ProposalCache | None = None
        self._closed = False
        self._runs = 0
        self._engines_created = 0
        self._evaluators_created = 0
        self._pools_started = 0  # snapshot surviving close() of the evaluator
        self._final_evaluator_stats: EvaluatorStats | None = None
        self._cum_stats = EngineStats()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # State and lifecycle
    # ------------------------------------------------------------------
    @property
    def game(self) -> NetworkCreationGame:
        return self._game

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def evaluator(self) -> "EvaluatorBackend | None":
        """The session's shared evaluator, if one exists yet (else ``None``).

        Exposed for fleet management on the remote backend —
        :meth:`~repro.core.remote.RemoteEvaluator.add_endpoint` /
        :meth:`~repro.core.remote.RemoteEvaluator.remove_endpoint` between
        runs, :meth:`~repro.core.remote.RemoteEvaluator.check_endpoints`
        health checks.  The session owns it: do **not** ``close()`` it.
        """
        return self._evaluator

    def close(self) -> None:
        """Tear down the owned engine, proposal cache and worker pool (idempotent)."""
        self._closed = True
        engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()  # no-op on the shared evaluator: the engine does not own it
        evaluator, self._evaluator = self._evaluator, None
        if evaluator is not None:
            self._pools_started = evaluator.pools_started
            self._final_evaluator_stats = evaluator.stats
            evaluator.close()
        self._cache = None

    def __enter__(self) -> "GameSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"runs={self._runs}"
        return f"GameSession(n={self._game.n}, {state}, config={self._config!r})"

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("GameSession is closed; open a new session")

    # ------------------------------------------------------------------
    # Owned resources
    # ------------------------------------------------------------------
    def _shared_evaluator(self) -> "EvaluatorBackend | None":
        """The session's single shared evaluator backend (created once, lazily).

        ``backend="local"`` with ``workers > 1`` builds a shared-memory
        :class:`~repro.core.parallel.ParallelEvaluator`;
        ``backend="remote"`` builds a
        :class:`~repro.core.remote.RemoteEvaluator` over the config's
        endpoints (its connection set is the session's "pool" — opened
        lazily, exactly once, shared by every run).
        """
        cfg = self._config
        if cfg.engine != "incremental":
            return None
        if cfg.backend != "remote" and cfg.workers <= 1:
            return None
        if self._evaluator is None:
            if cfg.failover == "ladder":
                self._evaluator = _FailoverLadder(self._game, cfg)
            else:
                self._evaluator = _primary_evaluator(self._game, cfg, breaker=None)
            self._evaluators_created += 1
        return self._evaluator

    def arm_faults(self, plan: "FaultPlan") -> None:
        """Arm a :class:`~repro.core.faults.FaultPlan`'s pool faults (test seam).

        Builds the shared evaluator if needed and installs the plan's
        ``kill_pool_worker`` hook on it (the ladder propagates the hook to
        every pool rung).  Worker-side faults are armed on the *servers*
        (``repro worker serve --fault-plan``), not here.  No-op when the
        config runs serial in-process (there is no pool to kill).
        """
        from .faults import pool_fault_hook

        evaluator = self._shared_evaluator()
        if evaluator is not None and hasattr(evaluator, "fault_hook"):
            evaluator.fault_hook = pool_fault_hook(plan)

    def _engine_for(self, initial: StrategyProfile) -> IncrementalEngine | None:
        """The owned incremental engine, pointed at ``initial``.

        The engine object is created once and *reset* for every later run —
        distance caches, residuals and stats start fresh (runs stay
        bit-identical to one-shot engines) while the injected evaluator's
        worker pool survives.
        """
        if self._config.engine != "incremental":
            return None
        if self._engine is None:
            self._engine = IncrementalEngine(
                self._game,
                initial,
                repair_threshold=self._config.repair_threshold,
                workers=self._config.workers,
                evaluator=self._shared_evaluator(),
            )
            self._engines_created += 1
        else:
            self._engine.reset(initial)
        return self._engine

    def _cache_for(self, cfg: SimulationConfig) -> _ProposalCache | None:
        if cfg.schedule != "batched":
            return None
        if self._cache is None:
            self._cache = _ProposalCache(self._game)
        else:
            # Proposals are tied to the run's evolving profile: cleared per
            # run (the row-index table survives; it depends only on the
            # static host weights).
            self._cache.clear()
        return self._cache

    def _run_config(self, overrides: Mapping[str, Any]) -> SimulationConfig:
        if not overrides:
            return self._config
        cfg = self._config.replace(**overrides)
        changed = [
            name
            for name in _SESSION_SCOPED
            if getattr(cfg, name) != getattr(self._config, name)
        ]
        if changed:
            raise ValueError(
                f"cannot override {changed} per run: the session owns the "
                "engine and worker pool they shape; use "
                "SimulationConfig.replace() and open a new GameSession"
            )
        return cfg

    @staticmethod
    def _coerce_rng(
        rng: np.random.Generator | int | None, cfg: SimulationConfig
    ) -> np.random.Generator:
        if rng is None:
            return cfg.rng()
        if isinstance(rng, (int, np.integer)):
            return np.random.default_rng(int(rng))
        return rng

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        initial: StrategyProfile,
        *,
        rng: np.random.Generator | int | None = None,
        record_history: bool = False,
        detect_cycles: bool = True,
        tol: float = _TOL,
        **overrides: Any,
    ) -> DynamicsResult:
        """Run response dynamics from ``initial`` through the session.

        Equivalent to :func:`repro.core.dynamics.run_dynamics` with the
        session's config, except that the engine and worker pool are the
        session-owned ones.  ``rng`` defaults to the config's seed policy
        (:meth:`SimulationConfig.rng`); ``overrides`` are per-run config
        overrides (see the class docstring for which fields are allowed).
        """
        self._ensure_open()
        cfg = self._run_config(overrides)
        if cfg.max_rounds is None:
            cfg = cfg.replace(max_rounds=MAX_ROUNDS_RUN)
        generator = self._coerce_rng(rng, cfg)
        engine = self._engine_for(initial)
        cache = self._cache_for(cfg)
        result = _run_session_loop(
            self._game,
            initial,
            cfg=cfg,
            inc=engine,
            cache=cache,
            rng=generator,
            record_history=record_history,
            detect_cycles=detect_cycles,
            tol=tol,
        )
        return self._account(result)

    def _account(self, result: DynamicsResult) -> DynamicsResult:
        """Fold one finished run into the session's cumulative counters."""
        self._runs += 1
        if result.engine_stats is not None:
            for f in dataclasses.fields(EngineStats):
                setattr(
                    self._cum_stats,
                    f.name,
                    getattr(self._cum_stats, f.name)
                    + getattr(result.engine_stats, f.name),
                )
        self._hits += result.schedule_hits
        self._misses += result.schedule_misses
        return result

    def resume(self, source: "Checkpoint | str | os.PathLike", **overrides: Any) -> DynamicsResult:
        """Continue a checkpointed run through this session, byte-identically.

        ``source`` is a checkpoint file path or an already-loaded
        :class:`~repro.core.checkpoint.Checkpoint`.  The session rebuilds
        the run exactly as the checkpoint left it — profile, engine caches,
        proposal cache and speculation window, RNG stream, counters, cost
        trajectory and cycle table — and runs the *remaining* round budget
        (``rounds_total - rounds_completed``; the budget is never
        restarted).  The returned :class:`~repro.core.dynamics
        .DynamicsResult` is byte-identical — trajectory, converged costs,
        ``EngineStats``, proposal-cache counters — to the straight-through
        run, whatever backend or worker count this session uses: placement
        fields are free to differ from the checkpointing run, the
        trajectory-shaping fields (:data:`~repro.core.checkpoint
        .TRAJECTORY_FIELDS`) must match and are validated.

        ``record_history``, ``detect_cycles``, ``tol`` and the RNG state are
        taken from the checkpoint — they are part of the run being resumed.
        ``overrides`` are per-run config overrides (e.g. a new
        ``checkpoint_path``/``checkpoint_every`` policy, or ``None`` for
        both to stop checkpointing); session-scoped fields cannot change
        per run, same as :meth:`run`.
        """
        self._ensure_open()
        ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
        if (
            ckpt.n != self._game.n
            or not np.array_equal(ckpt.host_weights, self._game.host.weights)
            or float(ckpt.alpha) != float(self._game.alpha)
        ):
            raise ValueError(
                "checkpoint was written for a different game instance "
                "(host weights or alpha differ from this session's game)"
            )
        cfg = self._run_config(overrides)
        if cfg.max_rounds is None:
            # An unset budget adopts the checkpointed run's resolved one, so
            # the continuation finishes the original budget — the resumed
            # run executes only the remaining rounds.
            cfg = cfg.replace(max_rounds=ckpt.rounds_total)
        ck_cfg = ckpt.simulation_config()
        mismatched = [
            name
            for name in TRAJECTORY_FIELDS
            if getattr(cfg, name) != getattr(ck_cfg, name)
        ]
        if mismatched:
            raise ValueError(
                f"cannot resume with different trajectory-shaping field(s) "
                f"{mismatched}: the continuation would not be the same run "
                "(backend/workers/endpoints may change freely; these may not)"
            )
        initial = ckpt.profile()
        engine = self._engine_for(initial)
        if engine is not None:
            engine.restore_state(
                distances=ckpt.engine_distances,
                residuals=ckpt.engine_residuals,
                stats=ckpt.engine_stats,
            )
        cache = self._cache_for(cfg)
        if cache is not None and ckpt.cache_state is not None:
            cache.restore_state(
                ckpt.proposals(),
                hits=ckpt.cache_state["hits"],
                misses=ckpt.cache_state["misses"],
            )
        resume_state = _ResumeState(
            rounds_completed=ckpt.rounds_completed,
            steps=ckpt.steps,
            moves=ckpt.moves,
            social_costs=[float(c) for c in ckpt.social_costs],
            seen=ckpt.seen(),
            history=ckpt.history_profiles(),
            prefill_window=(
                ckpt.cache_state["prefill_window"]
                if ckpt.cache_state is not None
                else None
            ),
            floor_misses=(
                ckpt.cache_state["floor_misses"]
                if ckpt.cache_state is not None
                else 0
            ),
            speculated=(
                set(ckpt.cache_state["speculated"])
                if ckpt.cache_state is not None
                else set()
            ),
        )
        result = _run_session_loop(
            self._game,
            initial,
            cfg=cfg,
            inc=engine,
            cache=cache,
            rng=rng_from_state(ckpt.rng_state),
            record_history=ckpt.record_history,
            detect_cycles=ckpt.detect_cycles,
            tol=ckpt.tol,
            resume=resume_state,
        )
        return self._account(result)

    def sample_equilibria(
        self,
        *,
        num_samples: int = 10,
        verify: str = "nash",
        rng: np.random.Generator | int | None = None,
        **overrides: Any,
    ) -> list[StrategyProfile]:
        """Sample stable profiles by running dynamics from varied seed profiles.

        The session-native equivalent of
        :func:`repro.core.poa.sample_equilibria`: every run shares the
        session's engine and worker pool, so a sweep through one session
        creates exactly one :class:`~repro.core.parallel.ParallelEvaluator`
        however many starting profiles it explores.  Activation order is
        round-robin (matching the sampling methodology) unless ``order`` is
        overridden; ``verify`` selects the acceptance test (``"nash"``,
        ``"greedy"`` or ``"none"``) applied to converged profiles of finite
        social cost.  ``overrides`` are per-run config overrides with the
        semantics of :meth:`run`; the 60-round sampling budget applies when
        neither they nor the session's config set ``max_rounds``.
        """
        self._ensure_open()
        if verify not in ("nash", "greedy", "none"):
            raise ValueError(f"unknown verify mode {verify!r}")
        overrides = {"order": "round_robin", **overrides}
        if overrides.get("max_rounds") is None:
            overrides["max_rounds"] = self._config.resolved_max_rounds(
                MAX_ROUNDS_SAMPLING
            )
        cfg = self._run_config(overrides)
        generator = self._coerce_rng(rng, cfg)
        found: dict[bytes, StrategyProfile] = {}
        for seed_profile in _initial_profiles(self._game, num_samples, generator):
            result = self.run(seed_profile, rng=generator, **overrides)
            # Under the inf -> inf no-gain rule every agent of a disconnected
            # profile may stay put: "converged", but not an equilibrium.
            if not result.converged or not np.isfinite(result.final_social_cost):
                continue
            profile = result.final_profile
            if verify == "nash":
                ok = is_nash_equilibrium(
                    self._game, profile, max_candidates=cfg.max_candidates
                )
            elif verify == "greedy":
                ok = is_greedy_equilibrium(self._game, profile)
            else:
                ok = True
            if ok:
                found[profile.canonical_key()] = profile
        return list(found.values())

    def poa(
        self,
        *,
        num_samples: int = 10,
        verify: str = "nash",
        optimum_method: str = "auto",
        extra_equilibria: Iterable[StrategyProfile] = (),
        rng: np.random.Generator | int | None = None,
        **overrides: Any,
    ) -> PoAEstimate:
        """Empirical Price-of-Anarchy estimate through the session.

        The session-native equivalent of
        :func:`repro.core.poa.estimate_poa`: the social optimum is computed
        once, equilibria are sampled via :meth:`sample_equilibria` (sharing
        the session's pool, with the same ``overrides``) and
        ``extra_equilibria`` — e.g. the paper's constructions — are folded
        into the worst/best-cost aggregation.
        """
        self._ensure_open()
        opt = social_optimum(self._game, method=optimum_method)
        equilibria = self.sample_equilibria(
            num_samples=num_samples, verify=verify, rng=rng, **overrides
        )
        equilibria.extend(extra_equilibria)
        worst: StrategyProfile | None = None
        worst_cost = -np.inf
        best_cost = np.inf
        for eq in equilibria:
            cost = self._game.social_cost(eq)
            if cost > worst_cost:
                worst_cost = cost
                worst = eq
            best_cost = min(best_cost, cost)
        return PoAEstimate(
            optimum=opt,
            worst_equilibrium=worst,
            worst_equilibrium_cost=float(worst_cost) if worst is not None else float("nan"),
            best_equilibrium_cost=float(best_cost) if equilibria else float("nan"),
            equilibria_found=len(equilibria),
            equilibrium_kind=verify,
            samples=num_samples,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> SessionStats:
        """Construction counts and cumulative engine counters (see :class:`SessionStats`)."""
        return SessionStats(
            runs=self._runs,
            engines_created=self._engines_created,
            evaluators_created=self._evaluators_created,
            evaluator_pools_started=(
                self._evaluator.pools_started
                if self._evaluator is not None
                else self._pools_started
            ),
            evaluator_running=(
                self._evaluator.is_running if self._evaluator is not None else False
            ),
            engine_stats=dataclasses.replace(self._cum_stats),
            schedule_hits=self._hits,
            schedule_misses=self._misses,
            evaluator_stats=(
                self._evaluator.stats
                if self._evaluator is not None
                else self._final_evaluator_stats
            ),
        )


def resume_dynamics(
    source: "Checkpoint | str | os.PathLike",
    *,
    game: NetworkCreationGame | None = None,
    session: "GameSession | None" = None,
    **overrides: Any,
) -> DynamicsResult:
    """One-shot resume of a checkpointed dynamics run (fresh-process entry point).

    ``source`` is a checkpoint file path or a loaded
    :class:`~repro.core.checkpoint.Checkpoint`.  Without a ``game`` the
    exact instance is rebuilt from the checkpoint itself (host weights +
    alpha travel in the file), so a fresh process needs nothing but the
    file; pass ``game`` to skip the rebuild when the instance is already in
    hand, or ``session`` to resume through an open
    :class:`GameSession` (its engine and pool are reused; equivalent to
    :meth:`GameSession.resume`).

    ``overrides`` replace fields of the checkpointed config for the
    continuation — placement fields (``backend``, ``workers``,
    ``endpoints``, ``batch_timeout``, ``max_retries``) and
    the checkpoint policy may change freely (``checkpoint_every=None,
    checkpoint_path=None`` stops further checkpointing); the
    trajectory-shaping fields (:data:`~repro.core.checkpoint
    .TRAJECTORY_FIELDS`) may not, and ``None`` is applied literally, not
    treated as "unset".  The continuation is byte-identical to the
    straight-through run and executes only the remaining round budget.
    """
    ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
    if session is not None:
        if game is not None and game is not session.game:
            raise ValueError(
                "session is scoped to a different game: pass the session's "
                "own game or none at all"
            )
        return session.resume(ckpt, **overrides)
    if game is None:
        game = ckpt.build_game()
    cfg = ckpt.simulation_config().replace(**overrides)
    with GameSession(game, cfg) as one_shot:
        return one_shot.resume(ckpt)
