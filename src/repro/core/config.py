"""The simulation configuration: every knob of a dynamics run, declared once.

Each :class:`SimulationConfig` field carries a :class:`Knob` in its
``dataclasses.field`` metadata — how a given value is coerced, which named
values it may take, whether it shapes the session or the trajectory, and
how the CLI spells and explains it.  Everything else that needs to know
the config fields is derived from ``dataclasses.fields(SimulationConfig)``:

* the coercion and choices checks of ``SimulationConfig.__post_init__``;
* :data:`TRAJECTORY_FIELDS` (what a resume may not change) and the
  session-scoped fields :class:`~repro.core.session.GameSession` refuses
  to override per run;
* the flags of the ``repro`` experiment commands, ``config dump`` and
  ``resume``, and the overrides ``resume`` applies.

Cross-field rules (the remote backend needs endpoints, the batched
schedule needs the incremental engine, and so on) stay hand-written in
``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "DUMP",
    "EXPERIMENT",
    "KNOBS",
    "Knob",
    "RESUME",
    "SimulationConfig",
    "TRAJECTORY_FIELDS",
    "spawn_seeds",
]

# The CLI parsers a knob's flag can appear on.
EXPERIMENT = "experiment"  # poa, dynamics, simulate and config dump
DUMP = "dump"  # config dump only
RESUME = "resume"


@dataclass(frozen=True)
class Knob:
    """How one :class:`SimulationConfig` field is validated, scoped and exposed.

    ``coerce`` normalizes every given value (``None`` passes untouched when
    ``optional``); a string result must be one of ``choices`` when any are
    listed.  ``session`` marks a field that shapes a session's engine or
    evaluator, so it is fixed for the session's lifetime; ``trajectory``
    marks a field that shapes a run's trajectory or stats, so a resume must
    keep it.  A field with neither may change per run.  ``parsers`` lists
    the CLI parsers exposing the field as ``flag`` (default:
    ``--field-name``).
    """

    help: str
    coerce: Callable[[Any], Any] = str
    optional: bool = False
    choices: tuple[str, ...] = ()
    session: bool = False
    trajectory: bool = False
    parsers: tuple[str, ...] = ()
    flag: str = ""
    metavar: str | None = None


def _order(value: Any) -> str | tuple[int, ...]:
    # An explicit activation sequence is normalized to a tuple of ints so
    # configs stay hashable and equality-comparable.
    return value if isinstance(value, str) else tuple(int(a) for a in value)


def _endpoints(value: Any) -> tuple[str, ...]:
    from .remote import parse_endpoint

    if isinstance(value, str):  # a lone "host:port" is one endpoint
        value = (value,)
    endpoints = tuple(str(e) for e in value)
    for endpoint in endpoints:
        parse_endpoint(endpoint)  # ValueError on anything but host:port
    return endpoints


def _path(value: Any) -> str:
    return str(os.fspath(value))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, whose children carry
    NumPy's documented statistical-independence guarantee (ad-hoc
    ``seed + i`` derivation offers no such guarantee, and collides outright
    when two sweeps use overlapping base-seed ranges).  Each child is
    rendered as a full 128-bit integer — not a truncated word, which would
    reintroduce birthday-bound collisions across large sweeps — and
    ``numpy.random.default_rng`` consumes integers of any size, so the
    guarantee survives the round-trip.  Each child is a pure function of
    ``(seed, index)``, so a parallel sweep seeded this way is reproducible
    regardless of how its tasks are scheduled across processes.
    """
    parent = np.random.SeedSequence(int(seed))
    return [
        int.from_bytes(child.generate_state(4, dtype=np.uint32).tobytes(), "little")
        for child in parent.spawn(int(count))
    ]


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of a dynamics run, validated and serializable.

    Field defaults equal the historical defaults of
    :func:`repro.core.dynamics.run_dynamics`, so ``SimulationConfig()``
    reproduces a bare ``run_dynamics(game, initial)`` call exactly.  Each
    field's meaning is its :class:`Knob` help text, which is also its CLI
    help.

    ``max_rounds=None`` (the default) means "the entry point's historical
    budget" — 100 for a plain dynamics run, 60 for equilibrium sampling, 40
    for the convergence study — so one config serves every entry point
    without silently changing any budget.  ``seed`` is the root of the
    config's seed policy: :meth:`rng` builds the default per-run generator
    from it and :meth:`spawn_seeds` derives independent child seeds;
    ``seed=None`` means "the fixed default stream" (seed 0 — never OS
    entropy, so two equal configs always replay identical trajectories).

    Every backend, worker count, residual encoding and failover policy
    replays bit-identical trajectories; those fields trade nothing but time
    and placement.  A checkpointed run resumed via
    :meth:`~repro.core.session.GameSession.resume`,
    :func:`~repro.core.session.resume_dynamics` or ``repro resume``
    continues byte-identically and honors the *remaining* round budget.
    ``auth_token`` is stored in plaintext by :meth:`to_dict` — i.e. in
    config files and checkpoints.
    """

    engine: str = field(
        default="incremental",
        metadata={"knob": Knob(
            "distance engine for best-response dynamics: 'incremental' "
            "(default) caches all-pairs distances, reuses residual matrices "
            "across sweeps and updates distances in O(n^2) per move; 'exact' "
            "recomputes shortest paths from scratch at every step (slow "
            "cross-validation oracle — both engines play identical responses)",
            choices=("incremental", "exact"),
            session=True,
            trajectory=True,
            parsers=(EXPERIMENT,),
        )},
    )
    schedule: str = field(
        default="sequential",
        metadata={"knob": Knob(
            "activation schedule for response dynamics: 'sequential' "
            "(default) re-scores every agent at every activation; 'batched' "
            "caches scored proposals and replays them at later activations, "
            "re-scoring only agents whose residual rows an applied move "
            "invalidated (identical trajectory, requires --engine "
            "incremental)",
            choices=("sequential", "batched"),
            trajectory=True,
            parsers=(EXPERIMENT,),
        )},
    )
    workers: int = field(
        default=1,
        metadata={"knob": Knob(
            "worker processes for batched proposal evaluation: 1 (default) "
            "scores in-process, k > 1 fans each batch of proposals out to k "
            "persistent workers over shared-memory distance snapshots — "
            "bit-identical results for every worker count (requires "
            "--engine incremental; pays off with --schedule batched).  "
            "Sweeps share one worker pool per instance via GameSession",
            coerce=int,
            session=True,
            parsers=(EXPERIMENT, RESUME),
        )},
    )
    repair_threshold: float = field(
        default=0.5,
        metadata={"knob": Knob(
            "the incremental engine rebuilds a residual matrix from scratch "
            "instead of repairing it when more than this fraction of the n "
            "sources is affected (default 0.5)",
            coerce=float,
            session=True,
            trajectory=True,
            parsers=(DUMP,),
        )},
    )
    response: str = field(
        default="best",
        metadata={"knob": Knob(
            "response an activated agent plays: 'best' (default; exact best "
            "response), 'greedy' (single-move local optimum) or 'single' "
            "(one best single move)",
            choices=("best", "greedy", "single"),
            trajectory=True,
            parsers=(DUMP,),
        )},
    )
    order: str | tuple[int, ...] = field(
        default="round_robin",
        metadata={"knob": Knob(
            "agent activation order: 'round_robin' (default), 'random' or "
            "'max_gain'; a config file may instead list an explicit "
            "activation sequence",
            coerce=_order,
            choices=("round_robin", "random", "max_gain"),
            trajectory=True,
            parsers=(DUMP,),
        )},
    )
    max_rounds: int | None = field(
        default=None,
        metadata={"knob": Knob(
            "round budget; a round activates every agent once, or passes "
            "once over an explicit activation sequence (default: the entry "
            "point's historical budget — run_dynamics 100, poa sampling and "
            "simulate 60, the dynamics study 40)",
            coerce=int,
            optional=True,
            trajectory=True,
            parsers=(DUMP,),
        )},
    )
    max_candidates: int = field(
        default=22,
        metadata={"knob": Knob(
            "largest candidate set an exact best response may enumerate "
            "(default 22)",
            coerce=int,
            trajectory=True,
            parsers=(DUMP,),
        )},
    )
    seed: int | None = field(
        default=0,
        metadata={"knob": Knob(
            "root seed of the run (default: the config file's seed, else 0)",
            coerce=int,
            optional=True,
            parsers=(EXPERIMENT,),
        )},
    )
    backend: str = field(
        default="local",
        metadata={"knob": Knob(
            "evaluator backend for the batched evaluations: 'local' "
            "(default) scores in-process or on a shared-memory worker pool "
            "(--workers); 'remote' fans batches out over sockets to "
            "'repro worker serve' processes listed via --endpoint — "
            "bit-identical trajectories either way",
            choices=("local", "remote"),
            session=True,
            parsers=(EXPERIMENT, RESUME),
        )},
    )
    endpoints: tuple[str, ...] = field(
        default=(),
        metadata={"knob": Knob(
            "address of a running 'repro worker serve' process; repeat the "
            "flag for multiple workers (requires --backend remote)",
            coerce=_endpoints,
            session=True,
            parsers=(EXPERIMENT, RESUME),
            flag="--endpoint",
            metavar="HOST:PORT",
        )},
    )
    residual_encoding: str = field(
        default="dense",
        metadata={"knob": Knob(
            "how residual matrices reach the evaluation workers: 'dense' "
            "(default) ships every distinct matrix verbatim; 'delta' ships "
            "one dense base per chunk/shard plus packed changed-row deltas "
            "against it — bit-identical trajectories, O(k*n) bytes per "
            "localized move instead of O(n^2), the knob for n >= 1000",
            choices=("dense", "delta"),
            session=True,
            parsers=(EXPERIMENT, RESUME),
        )},
    )
    batch_timeout: float | None = field(
        default=None,
        metadata={"knob": Knob(
            "per-socket-operation inactivity deadline for remote batches: a "
            "worker that produces no bytes for this long is dropped and its "
            "shard re-dispatched to surviving endpoints (default 120; "
            "requires --backend remote)",
            coerce=float,
            optional=True,
            session=True,
            parsers=(EXPERIMENT, RESUME),
            metavar="SECONDS",
        )},
    )
    max_retries: int | None = field(
        default=None,
        metadata={"knob": Knob(
            "shard re-dispatch rounds allowed per remote batch after "
            "endpoint failures before the batch fails (default 2; requires "
            "--backend remote)",
            coerce=int,
            optional=True,
            session=True,
            parsers=(EXPERIMENT, RESUME),
            metavar="N",
        )},
    )
    checkpoint_every: int | None = field(
        default=None,
        metadata={"knob": Knob(
            "checkpoint every K-th round boundary (default 1 when "
            "--checkpoint is given; requires --checkpoint)",
            coerce=int,
            optional=True,
            parsers=(EXPERIMENT, RESUME),
            metavar="K",
        )},
    )
    checkpoint_path: str | None = field(
        default=None,
        metadata={"knob": Knob(
            "serialize the run's complete state to PATH at round boundaries "
            "(atomic write-then-rename; a {round} placeholder keeps one file "
            "per boundary); continue a killed run with 'repro resume PATH' — "
            "the continuation is byte-identical to the uninterrupted run",
            coerce=_path,
            optional=True,
            parsers=(EXPERIMENT, RESUME),
            flag="--checkpoint",
            metavar="PATH",
        )},
    )
    failover: str = field(
        default="ladder",
        metadata={"knob": Knob(
            "policy for a batch that fails terminally on the configured "
            "backend: 'ladder' (default) degrades remote -> local pool -> "
            "serial with bit-identical results and promotes back once the "
            "fleet recovers; 'strict' fails fast (after the emergency "
            "checkpoint, when --checkpoint is set)",
            choices=("ladder", "strict"),
            session=True,
            parsers=(EXPERIMENT, RESUME),
        )},
    )
    auth_token: str | None = field(
        default=None,
        metadata={"knob": Knob(
            "shared secret of the protocol-3 worker handshake; every "
            "'repro worker serve' must run with the same token (requires "
            "--backend remote)",
            optional=True,
            session=True,
            parsers=(EXPERIMENT, RESUME),
            metavar="SECRET",
        )},
    )

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            knob: Knob = f.metadata["knob"]
            value = getattr(self, f.name)
            if value is None and knob.optional:
                continue
            # Coercion failures (e.g. {"workers": null} or {"order": 5} in a
            # JSON config file) must surface as ValueError — the error type
            # callers like the CLI catch — never as a raw TypeError.
            try:
                value = knob.coerce(value)
            except TypeError as exc:
                raise ValueError(
                    f"invalid SimulationConfig field value for {f.name}: {exc}"
                ) from exc
            if knob.choices and isinstance(value, str) and value not in knob.choices:
                raise ValueError(
                    f"unknown {f.name} {value!r} (expected one of {knob.choices})"
                )
            object.__setattr__(self, f.name, value)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.repair_threshold < 0:
            raise ValueError("repair_threshold must be non-negative")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.workers > 1 and self.engine != "incremental":
            raise ValueError(
                "workers > 1 requires engine='incremental': the exact oracle "
                "recomputes from scratch per agent and has no shared snapshot "
                "to evaluate against"
            )
        if self.backend == "remote":
            if not self.endpoints:
                raise ValueError(
                    "backend='remote' requires endpoints: list the "
                    "'host:port' addresses of running 'repro worker serve' "
                    "processes"
                )
            if self.engine != "incremental":
                raise ValueError(
                    "backend='remote' requires engine='incremental': only "
                    "the incremental engine produces the residual snapshots "
                    "the workers score against"
                )
            if self.workers != 1:
                raise ValueError(
                    "backend='remote' fans out to the endpoint workers; "
                    "'workers' sizes the local shared-memory pool and must "
                    "stay 1 under the remote backend"
                )
        elif self.endpoints:
            raise ValueError(
                "endpoints are only meaningful with backend='remote'"
            )
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise ValueError(
                "batch_timeout must be positive: it is the per-socket-"
                "operation inactivity deadline in seconds"
            )
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backend != "remote" and (
            self.batch_timeout is not None or self.max_retries is not None
        ):
            raise ValueError(
                "batch_timeout/max_retries tune the remote fleet's failure "
                "handling and are only meaningful with backend='remote'"
            )
        if self.backend != "remote" and self.auth_token is not None:
            raise ValueError(
                "auth_token arms the remote handshake and is only "
                "meaningful with backend='remote'"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise ValueError(
                "checkpoint_every without checkpoint_path: there is nowhere "
                "to write the checkpoints"
            )
        if self.checkpoint_path is not None and self.checkpoint_every is None:
            # A path alone means "checkpoint every round boundary".
            object.__setattr__(self, "checkpoint_every", 1)
        if self.schedule == "batched":
            if self.engine != "incremental":
                raise ValueError(
                    "schedule='batched' requires engine='incremental': the "
                    "exact oracle keeps no residual matrices to re-validate "
                    "proposals against"
                )
            if self.order == "max_gain":
                raise ValueError(
                    "schedule='batched' does not support order='max_gain' "
                    "(max-gain activation already re-scores every agent per step)"
                )

    # ------------------------------------------------------------------
    # Functional update and serialization
    # ------------------------------------------------------------------
    @classmethod
    def merged(
        cls,
        config: "SimulationConfig | None",
        **overrides: Any,
    ) -> "SimulationConfig":
        """The one override-merge policy of every module-level entry point.

        ``config`` (field defaults when ``None``) is updated with the
        ``overrides`` whose value is not ``None`` — ``None`` means "not
        given", so explicitly passed keywords always win.
        """
        cfg = config if config is not None else cls()
        return cfg.replace(
            **{key: value for key, value in overrides.items() if value is not None}
        )

    def replace(self, **changes: Any) -> "SimulationConfig":
        """A new validated config with ``changes`` applied (the original is untouched)."""
        if not changes:
            return self
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(
                f"unknown SimulationConfig field(s): {sorted(unknown)}"
            )
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-safe dict; inverse of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        if not isinstance(self.order, str):
            data["order"] = list(self.order)
        data["endpoints"] = list(self.endpoints)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Build a validated config from a dict (e.g. parsed from JSON).

        Unknown keys are rejected so a typo in a config file fails loudly
        instead of silently falling back to a default.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"config must be a mapping of field names, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimulationConfig field(s): {sorted(unknown)}")
        return cls(**dict(data))

    def resolved_max_rounds(self, default: int) -> int:
        """The effective round budget: the entry point's ``default`` when unset."""
        return default if self.max_rounds is None else self.max_rounds

    # ------------------------------------------------------------------
    # Seed policy
    # ------------------------------------------------------------------
    def root_seed(self) -> int:
        """The effective root seed: ``seed``, with ``None`` meaning the fixed stream 0."""
        return 0 if self.seed is None else self.seed

    def rng(self) -> np.random.Generator:
        """The config's default per-run generator (fixed seed, never OS entropy)."""
        return np.random.default_rng(self.root_seed())

    def spawn_seeds(self, count: int) -> list[int]:
        """``count`` independent child seeds of the config's root seed (see :func:`spawn_seeds`)."""
        return spawn_seeds(self.root_seed(), count)


KNOBS: Mapping[str, Knob] = MappingProxyType(
    {f.name: f.metadata["knob"] for f in dataclasses.fields(SimulationConfig)}
)

# Config fields that shape the *trajectory or stats* of a run.  A resume may
# change every other field — backend, workers, endpoints, fleet timeouts,
# checkpoint policy — which trades nothing but time and placement, but
# never these: the continuation would no longer be the same run.
TRAJECTORY_FIELDS: tuple[str, ...] = tuple(
    name for name, knob in KNOBS.items() if knob.trajectory
)
