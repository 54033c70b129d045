"""Job partitioning policies.

:class:`SwiftPartitioner` implements the paper's Algorithms 1 and 2
(shuffle-mode-aware partitioning): take the first remaining stage in
topological order, then grow a graphlet by following pipeline edges in both
directions until no pipeline-connected stage remains.

The other partitioners model the baselines:

* :class:`WholeJobPartitioner` — JetScope/Impala: the entire job is one unit.
* :class:`StagePartitioner` — Spark: every stage is its own unit.
* :class:`BubblePartitioner` — Bubble Execution: grow sub-graphs greedily
  along pipeline edges but cap each bubble by its estimated shuffle data
  volume (bubbles are sized to fit memory; overflowing edges are cut and the
  data crossing them is materialised to disk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from .dag import EdgeMode, JobDAG
from .graphlet import Graphlet, GraphletGraph


class Partitioner(Protocol):
    """Strategy interface: job DAG -> graphlet graph."""

    name: str

    def partition(self, dag: JobDAG) -> GraphletGraph:
        """Partition ``dag`` into a graphlet graph."""  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class SwiftPartitioner:
    """Algorithms 1 & 2: shuffle-mode-aware job partitioning.

    One refinement over the paper's pseudo-code: merging along pipeline
    edges does not by itself guarantee *convex* sub-graphs, so on unusual
    DAG shapes two graphlets can end up depending on each other through
    barrier edges in both directions — which would deadlock dependency-
    ordered submission.  When that happens (never for tree-shaped query
    plans like TPC-H), the partitioner cuts the widest pipeline edge inside
    an offending graphlet and re-partitions until the graphlet dependency
    graph is acyclic.  Set ``enforce_acyclic=False`` to get the raw
    Algorithm 1-2 output.
    """

    name = "swift"

    enforce_acyclic: bool = True

    def partition(
        self, dag: JobDAG, forced_cuts: Iterable[tuple[str, str]] = ()
    ) -> GraphletGraph:
        """Partition ``dag`` into a graphlet graph; the pipeline edges in
        ``forced_cuts`` are treated as graphlet boundaries."""
        cuts = set(forced_cuts)
        for _ in range(len(dag.stages) + 1):
            graphlets = self._scan_all(dag, cuts)
            if not self.enforce_acyclic:
                return GraphletGraph(dag=dag, graphlets=graphlets)
            cut = self._find_cycle_breaking_cut(dag, graphlets, cuts)
            if cut is None:
                return GraphletGraph(dag=dag, graphlets=graphlets)
            cuts.add(cut)
        raise RuntimeError("could not break graphlet dependency cycles")

    def _scan_all(
        self, dag: JobDAG, forced_cuts: set[tuple[str, str]]
    ) -> list[Graphlet]:
        remaining: dict[str, None] = dict.fromkeys(dag.topo_order())
        graphlets: list[Graphlet] = []
        while remaining:
            # Algorithm 1 line 2: first stage in topological order.
            trigger = next(iter(remaining))
            del remaining[trigger]
            stage_names = self._scan_and_add_stages(dag, trigger, remaining, forced_cuts)
            graphlets.append(
                Graphlet(
                    graphlet_id=len(graphlets) + 1,
                    stage_names=stage_names,
                    trigger_stage=trigger,
                )
            )
        return graphlets

    @staticmethod
    def _find_cycle_breaking_cut(
        dag: JobDAG,
        graphlets: list[Graphlet],
        forced_cuts: set[tuple[str, str]],
    ) -> tuple[str, str] | None:
        """Return a pipeline edge to cut, or ``None`` if already acyclic."""
        stage_to_graphlet: dict[str, int] = {}
        for graphlet in graphlets:
            for name in graphlet.stage_names:
                stage_to_graphlet[name] = graphlet.graphlet_id
        deps: dict[int, set[int]] = {g.graphlet_id: set() for g in graphlets}
        for edge in dag.edges:
            src_g, dst_g = stage_to_graphlet[edge.src], stage_to_graphlet[edge.dst]
            if src_g != dst_g:
                deps[dst_g].add(src_g)
        # Kahn: graphlets left over participate in a cycle.
        indegree = {gid: len(d) for gid, d in deps.items()}
        dependents: dict[int, list[int]] = {gid: [] for gid in deps}
        for gid, d in deps.items():
            for dep in d:
                dependents[dep].append(gid)
        ready = [gid for gid, deg in indegree.items() if deg == 0]
        seen = 0
        while ready:
            gid = ready.pop()
            seen += 1
            for successor in dependents[gid]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if seen == len(deps):
            return None
        cyclic = {gid for gid, deg in indegree.items() if deg > 0}
        position = {name: i for i, name in enumerate(dag.topo_order())}
        best: tuple[str, str] | None = None
        best_gap = -1
        for edge in dag.edges:
            same = stage_to_graphlet[edge.src] == stage_to_graphlet[edge.dst]
            if not same or stage_to_graphlet[edge.src] not in cyclic:
                continue
            if dag.edge_mode(edge) == EdgeMode.BARRIER:
                continue
            if (edge.src, edge.dst) in forced_cuts:
                continue
            gap = position[edge.dst] - position[edge.src]
            if gap > best_gap:
                best_gap = gap
                best = (edge.src, edge.dst)
        if best is None:  # pragma: no cover - cycles always involve pipelines
            raise RuntimeError("cyclic graphlets without cuttable pipeline edges")
        return best

    @staticmethod
    def _scan_and_add_stages(
        dag: JobDAG,
        start: str,
        remaining: dict[str, None],
        forced_cuts: set[tuple[str, str]],
    ) -> list[str]:
        """Algorithm 2, iterative form (the paper presents it recursively;
        an explicit stack avoids recursion limits on deep DAGs)."""
        stage_names = [start]
        stack = [start]
        while stack:
            stage = stack.pop()
            # Outgoing pipeline edges first (Algorithm 2 lines 2-7) ...
            for edge in dag.out_edges(stage):
                if (edge.src, edge.dst) in forced_cuts:
                    continue
                if edge.dst in remaining and dag.edge_mode(edge) == EdgeMode.PIPELINE:
                    del remaining[edge.dst]
                    stage_names.append(edge.dst)
                    stack.append(edge.dst)
            # ... then incoming pipeline edges (lines 8-13).
            for edge in dag.in_edges(stage):
                if (edge.src, edge.dst) in forced_cuts:
                    continue
                if edge.src in remaining and dag.edge_mode(edge) == EdgeMode.PIPELINE:
                    del remaining[edge.src]
                    stage_names.append(edge.src)
                    stack.append(edge.src)
        return stage_names


@dataclass(frozen=True)
class WholeJobPartitioner:
    """JetScope/Impala model: the whole job is a single gang-scheduled unit."""

    name = "whole_job"

    def partition(self, dag: JobDAG) -> GraphletGraph:
        """Partition ``dag`` into a graphlet graph."""
        graphlet = Graphlet(
            graphlet_id=1,
            stage_names=dag.topo_order(),
            trigger_stage=dag.topo_order()[0],
        )
        return GraphletGraph(dag=dag, graphlets=[graphlet])


@dataclass(frozen=True)
class StagePartitioner:
    """Spark model: one schedulable unit per stage."""

    name = "per_stage"

    def partition(self, dag: JobDAG) -> GraphletGraph:
        """Partition ``dag`` into a graphlet graph."""
        graphlets = [
            Graphlet(graphlet_id=i + 1, stage_names=[name], trigger_stage=name)
            for i, name in enumerate(dag.topo_order())
        ]
        return GraphletGraph(dag=dag, graphlets=graphlets)


@dataclass(frozen=True)
class BubblePartitioner:
    """Bubble Execution model: pipeline-connected growth with a memory cap.

    Bubbles are grown like Swift graphlets, but a bubble stops absorbing a
    neighbour when doing so would push the bubble's internal shuffle data
    volume past ``memory_budget_bytes``.  The cut edges become disk-backed
    barriers, which is why the baseline pays disk shuffle between bubbles and
    suffers the partitioning overhead Section V-D describes.
    """

    name = "bubble"

    memory_budget_bytes: float = 64 * 1024 ** 3

    def __post_init__(self) -> None:
        if self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")

    def partition(self, dag: JobDAG) -> GraphletGraph:
        """Partition ``dag`` into a graphlet graph."""
        # Identify pipeline edges that must be cut for the memory budget,
        # then reuse the Swift scan with those edges forced to cuts.
        forced_cuts: set[tuple[str, str]] = set()
        volume: dict[str, float] = {}
        remaining: dict[str, None] = dict.fromkeys(dag.topo_order())
        while remaining:
            trigger = next(iter(remaining))
            del remaining[trigger]
            bubble_volume = 0.0
            stage_names = [trigger]
            stack = [trigger]
            while stack:
                stage = stack.pop()
                for edge in dag.out_edges(stage) + dag.in_edges(stage):
                    neighbour = edge.dst if edge.src == stage else edge.src
                    if neighbour not in remaining:
                        continue
                    if dag.edge_mode(edge) != EdgeMode.PIPELINE:
                        continue
                    edge_volume = dag.edge_bytes(edge)
                    if bubble_volume + edge_volume > self.memory_budget_bytes:
                        forced_cuts.add((edge.src, edge.dst))
                        continue
                    bubble_volume += edge_volume
                    del remaining[neighbour]
                    stage_names.append(neighbour)
                    stack.append(neighbour)
            volume[trigger] = bubble_volume
        return SwiftPartitioner().partition(dag, forced_cuts)


#: Every partitioner by its ``name``: the policy round trip
#: (:class:`~repro.core.policies.ExecutionPolicy`) and the experiment cells
#: resolve names here.
PARTITIONERS: dict[str, type[Partitioner]] = {
    SwiftPartitioner.name: SwiftPartitioner,
    WholeJobPartitioner.name: WholeJobPartitioner,
    StagePartitioner.name: StagePartitioner,
    BubblePartitioner.name: BubblePartitioner,
}


def partition_job(dag: JobDAG, partitioner: Partitioner | None = None) -> GraphletGraph:
    """Partition ``dag`` with ``partitioner`` (default: Swift's algorithm)."""
    return (partitioner or SwiftPartitioner()).partition(dag)
