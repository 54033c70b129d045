"""The DAG job model: stages, shuffle edges, and whole-job validation.

A job is a directed acyclic graph of *stages*; each stage runs ``task_count``
parallel tasks executing the same operator chain on different partitions.
Edges carry data between stages via shuffle, and each edge has a *shuffle
mode* — ``PIPELINE`` or ``BARRIER`` — derived from the producer stage's
operators (see :mod:`repro.core.operators`) unless explicitly overridden.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .operators import Operator, stage_is_blocking


class EdgeMode(enum.Enum):
    """Shuffle mode of an edge: streaming pipeline or full barrier."""
    PIPELINE = "pipeline"
    BARRIER = "barrier"


class DAGValidationError(ValueError):
    """Raised when a job DAG is structurally invalid."""


def _is_amount(value: float) -> bool:
    """True for a finite real number >= 0 (``bool`` excluded)."""
    try:
        return 0 <= value < math.inf and value.__class__ is not bool
    except TypeError:  # not a number at all, e.g. "4" or None
        return False


@dataclass
class Stage:
    """One stage of a job: ``task_count`` identical parallel tasks.

    Data-volume fields drive the simulator's cost model:

    * ``scan_bytes_per_task`` — bytes each task reads from external storage
      (table scan); zero for intermediate stages.
    * ``output_bytes_per_task`` — bytes each task writes to its outgoing
      shuffle edge(s) in total.
    * ``work_seconds_per_task`` — pure record-processing time; when ``None``
      the runtime derives it from input volume and the configured
      processing rate.
    """

    name: str
    task_count: int
    operators: tuple[Operator, ...] = ()
    scan_bytes_per_task: float = 0.0
    output_bytes_per_task: float = 0.0
    work_seconds_per_task: Optional[float] = None
    #: Whether re-running a task reproduces byte-identical output in the
    #: same order (Section IV-B1).  Sort-based stages are idempotent; stages
    #: with nondeterministic UDFs or unordered unions may not be.
    idempotent: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise DAGValidationError("stage name must be non-empty")
        count = self.task_count
        if count.__class__ is not int or count < 1:
            raise DAGValidationError(
                f"stage {self.name}: task_count must be an int >= 1, got {count!r}"
            )
        work = self.work_seconds_per_task
        for value, label in (
            (self.scan_bytes_per_task, "scan_bytes_per_task"),
            (self.output_bytes_per_task, "output_bytes_per_task"),
            # None means "derive it from the input volume".
            (0.0 if work is None else work, "work_seconds_per_task"),
        ):
            if not _is_amount(value):
                raise DAGValidationError(
                    f"stage {self.name}: {label} must be a finite number >= 0,"
                    f" got {value!r}"
                )

    @property
    def is_blocking(self) -> bool:
        """True when this stage contains a global-sort operator."""
        return stage_is_blocking(self.operators)

    @property
    def total_output_bytes(self) -> float:
        """Bytes this stage writes across all of its tasks."""
        return self.output_bytes_per_task * self.task_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stage {self.name} x{self.task_count}>"


@dataclass
class Edge:
    """A shuffle edge between two stages.

    ``mode`` may be forced (e.g. by the SQL planner, which knows operator
    semantics); when ``None`` it is derived from the producer stage.
    ``bytes_override`` forces the data volume crossing the edge; by default
    the producer's total output is split evenly across its outgoing edges.
    """

    src: str
    dst: str
    mode: Optional[EdgeMode] = None
    bytes_override: Optional[float] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise DAGValidationError(f"self-edge on stage {self.src}")
        if self.bytes_override is not None and not _is_amount(self.bytes_override):
            raise DAGValidationError(
                f"edge {self.src}->{self.dst}: bytes_override must be a finite"
                f" number >= 0, got {self.bytes_override!r}"
            )


class JobDAG:
    """A validated job DAG with derived edge modes and traversal helpers."""

    def __init__(
        self,
        job_id: str,
        stages: Iterable[Stage],
        edges: Iterable[Edge],
    ) -> None:
        self.job_id = job_id
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise DAGValidationError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
        self.edges: list[Edge] = list(edges)
        self._in_edges: dict[str, list[Edge]] = {name: [] for name in self.stages}
        self._out_edges: dict[str, list[Edge]] = {name: [] for name in self.stages}
        for edge in self.edges:
            if edge.src not in self.stages:
                raise DAGValidationError(f"edge references unknown stage {edge.src!r}")
            if edge.dst not in self.stages:
                raise DAGValidationError(f"edge references unknown stage {edge.dst!r}")
            self._out_edges[edge.src].append(edge)
            self._in_edges[edge.dst].append(edge)
        self._topo = self._topological_order()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _topological_order(self) -> list[str]:
        indegree = {name: len(self._in_edges[name]) for name in self.stages}
        # Deterministic: seed with roots in insertion order.
        ready = [name for name in self.stages if indegree[name] == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for edge in self._out_edges[name]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.stages):
            cyclic = sorted(set(self.stages) - set(order))
            raise DAGValidationError(f"job {self.job_id}: cycle involving {cyclic}")
        return order

    def topo_order(self) -> list[str]:
        """Stage names in a deterministic topological order."""
        return list(self._topo)

    def roots(self) -> list[str]:
        """Stages with no incoming edges."""
        return [name for name in self._topo if not self._in_edges[name]]

    def sinks(self) -> list[str]:
        """Stages with no outgoing edges."""
        return [name for name in self._topo if not self._out_edges[name]]

    def in_edges(self, stage: str) -> list[Edge]:
        """Edges entering ``stage``."""
        return list(self._in_edges[stage])

    def out_edges(self, stage: str) -> list[Edge]:
        """Edges leaving ``stage``."""
        return list(self._out_edges[stage])

    def predecessors(self, stage: str) -> list[str]:
        """Producer stage names of ``stage``."""
        return [e.src for e in self._in_edges[stage]]

    def successors(self, stage: str) -> list[str]:
        """Consumer stage names of ``stage``."""
        return [e.dst for e in self._out_edges[stage]]

    def stage(self, name: str) -> Stage:
        """The stage named ``name`` (KeyError if absent)."""
        return self.stages[name]

    def __iter__(self) -> Iterator[Stage]:
        for name in self._topo:
            yield self.stages[name]

    def __len__(self) -> int:
        return len(self.stages)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def edge_mode(self, edge: Edge) -> EdgeMode:
        """Resolved shuffle mode: explicit override or producer-derived."""
        if edge.mode is not None:
            return edge.mode
        return EdgeMode.BARRIER if self.stages[edge.src].is_blocking else EdgeMode.PIPELINE

    def edge_bytes(self, edge: Edge) -> float:
        """Total bytes crossing ``edge``."""
        if edge.bytes_override is not None:
            return edge.bytes_override
        producer = self.stages[edge.src]
        fanout = len(self._out_edges[edge.src])
        return producer.total_output_bytes / fanout if fanout else 0.0

    def edge_size(self, edge: Edge) -> int:
        """Shuffle size: the number of task-to-task edges, i.e. M x N
        (Section III-B: "the number of edges between all source stage tasks
        and the sink ones")."""
        return self.stages[edge.src].task_count * self.stages[edge.dst].task_count

    def total_tasks(self) -> int:
        """Total task count across all stages."""
        return sum(stage.task_count for stage in self.stages.values())

    def critical_path_stages(self) -> list[str]:
        """Longest stage chain by count; a cheap critical-path proxy."""
        depth: dict[str, int] = {}
        parent: dict[str, Optional[str]] = {}
        for name in self._topo:
            preds = self.predecessors(name)
            if not preds:
                depth[name], parent[name] = 1, None
            else:
                best = max(preds, key=lambda p: depth[p])
                depth[name] = depth[best] + 1
                parent[name] = best
        end = max(depth, key=lambda n: depth[n])
        path: list[str] = []
        cursor: Optional[str] = end
        while cursor is not None:
            path.append(cursor)
            cursor = parent[cursor]
        return list(reversed(path))

    def validate(self) -> None:
        """Full structural validation (construction already checks most)."""
        for stage in self.stages.values():
            has_out = bool(self._out_edges[stage.name])
            if stage.output_bytes_per_task > 0 and not has_out:
                # Sinks may still "output" (adhoc sink to the client); allow it.
                pass
        if not self.stages:
            raise DAGValidationError("job has no stages")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobDAG {self.job_id}: {len(self.stages)} stages, {len(self.edges)} edges>"


@dataclass
class Job:
    """A submission-ready job: the DAG plus scheduling metadata."""

    dag: JobDAG
    #: Arrival time offset used by trace replays (seconds).
    submit_time: float = 0.0
    #: Free-form tags (e.g. shuffle-size class for Fig. 12 grouping).
    tags: dict[str, object] = field(default_factory=dict)
    #: Owning tenant in multi-tenant service runs ("" = untenanted).
    tenant: str = ""
    #: Absolute completion deadline in simulated seconds (None = no SLO).
    deadline: Optional[float] = None

    @property
    def job_id(self) -> str:
        """The job identifier (delegates to the DAG)."""
        return self.dag.job_id
