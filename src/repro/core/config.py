"""The unified execution surface: one frozen object per run.

Every entry point used to grow its own copy of the cross-cutting run
knobs — the routing plane, its worker/host fan-out, the fault seam, the
cost model — re-declared with drifting defaults
in ``AlgorithmParameters``, the CLI subcommands, the sweep runner and
the serve service.  :class:`ExecutionConfig` owns that surface in one
place:

- ``plane`` — the data representation of the simulated movement
  (:data:`repro.congest.batch.PLANES`: columnar ``batch`` or the
  ``object`` reference).
- ``workers`` / ``hosts`` — where batch-plane numpy work runs, resolved
  to a shard executor in **one** place
  (:meth:`ExecutionConfig.resolve_executor`): the ``hosts`` cluster,
  a ``workers`` process pool, or the calling process.
- ``faults`` — the optional fault-injection seam (``docs/faults.md``).
- ``cost_model`` — round-charge slack (:class:`repro.congest.routing.CostModel`).
- ``topology`` — the overlay network charges are additionally priced on
  (:mod:`repro.congest.topology`); accepts a :class:`Topology`, a spec
  string like ``"grid:8@bw=0.5"``, or ``None`` for the uniform clique.

:class:`~repro.core.params.AlgorithmParameters` composes one of these as
its only execution surface — spell a run as
``AlgorithmParameters(p, execution=ExecutionConfig(...))``; the listing
drivers route on ``params.execution.plane`` and resolve their executor
from the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Tuple, Union

from repro.congest.batch import DEFAULT_PLANE, PLANES
from repro.congest.routing import CostModel, DEFAULT_COST_MODEL
from repro.congest.topology import Topology, parse_topology
from repro.faults.model import FaultModel


@dataclass(frozen=True)
class ExecutionConfig:
    """Cross-cutting run configuration, shared by every entry point.

    Attributes
    ----------
    plane:
        Data representation: ``"batch"`` (columnar numpy, default) or
        ``"object"`` (reference tuple semantics).  Charged rounds are
        identical on both.
    workers:
        Local process-pool size for the batch plane's shard kernels
        (``1`` = run them in the calling process).
    hosts:
        Cluster host specs (``local``, ``spawn``, ``subprocess``, or
        ``host:port`` — :func:`repro.dist.parse_host`), frozen to a
        tuple; non-empty dispatches the shard kernels over that
        cluster instead of a local pool.  ``workers > 1`` together with
        ``hosts``, and either one on the ``"object"`` plane, are
        rejected: each run has at most one executor, and the reference
        plane has none.
    faults:
        Optional :class:`~repro.faults.model.FaultModel` attached to the
        run's routers; ``None`` keeps every code path byte-identical to
        the fault-free simulators.
    cost_model:
        Round-charge slack for the routing theorems.
    topology:
        Overlay network for makespan accounting — a
        :class:`~repro.congest.topology.Topology`, a spec string
        (parsed at construction), or ``None`` for the uniform clique
        (byte-identical charges to the pre-topology ledger).
    """

    plane: str = DEFAULT_PLANE
    workers: int = 1
    hosts: Tuple[str, ...] = ()
    faults: Optional[FaultModel] = None
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    topology: Optional[Union[Topology, str]] = None

    def __post_init__(self) -> None:
        if self.plane in ("parallel", "dist"):
            raise ValueError(
                f"routing plane {self.plane!r} no longer exists: a plane names "
                f"the data representation only; ask for a local pool with "
                f"ExecutionConfig(workers=N) or a cluster with "
                f"ExecutionConfig(hosts=(HOST, ...))"
            )
        if self.plane not in PLANES:
            raise ValueError(
                f"unknown routing plane {self.plane!r}; use one of {PLANES}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        if not isinstance(self.hosts, tuple):
            object.__setattr__(self, "hosts", tuple(self.hosts))
        if not all(isinstance(spec, str) and spec for spec in self.hosts):
            raise ValueError(
                f"hosts must be non-empty host-spec strings, got {self.hosts!r}"
            )
        if self.workers > 1 and self.hosts:
            raise ValueError(
                f"workers={self.workers} and hosts={self.hosts!r} name two "
                f"executors; give a local pool (workers) or a cluster (hosts)"
            )
        if self.plane == "object" and (self.workers > 1 or self.hosts):
            raise ValueError(
                "the object plane has no shard executor; drop workers/hosts "
                "or use plane='batch'"
            )
        if not isinstance(self.cost_model, CostModel):
            raise TypeError(
                f"cost_model must be a CostModel, got {type(self.cost_model).__name__}"
            )
        if isinstance(self.topology, str):
            object.__setattr__(self, "topology", parse_topology(self.topology))
        elif self.topology is not None and not isinstance(self.topology, Topology):
            raise TypeError(
                f"topology must be a Topology, a spec string, or None; "
                f"got {type(self.topology).__name__}"
            )

    # ------------------------------------------------------------------
    def resolve_executor(self):
        """The shard executor of this run, or ``None`` for the central
        single-process path.

        The one place the executor is decided, from the inputs alone:
        non-empty ``hosts`` → that cluster (:func:`repro.dist.get_cluster`),
        ``workers > 1`` → the local pool
        (:func:`repro.parallel.get_executor`), anything else → ``None``.
        Both listing drivers, the sparsity-aware lister, the stream
        engine's recount and the serve prewarm resolve through here.
        """
        if self.hosts:
            from repro.dist.cluster import get_cluster

            return get_cluster(self.hosts)
        if self.workers > 1:
            from repro.parallel.executor import get_executor

            return get_executor(self.workers)
        return None

    def topology_spec(self) -> Optional[str]:
        """The topology's canonical spec string (``None`` for clique
        default) — the form cache keys and remote payloads carry."""
        return None if self.topology is None else self.topology.spec()

    def with_(self, **changes) -> "ExecutionConfig":
        """Functional update (wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
