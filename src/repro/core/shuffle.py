"""Adaptive memory-based in-network shuffling (Section III-B).

Three in-network schemes plus the disk-based scheme used by the Spark and
Bubble Execution baselines:

============  =========================  ==================  ===============
scheme        TCP connections            extra memory copies medium
============  =========================  ==================  ===============
DIRECT        M x N                      0                   network
LOCAL         M + N + Y(Y-1)/2           2                   Cache Workers
REMOTE        M + N x Y                  1                   Cache Workers
DISK          M x N (fetch phase)        0                   local disks
============  =========================  ==================  ===============

Adaptive selection keys on the *shuffle size* (edge count M x N) with the
production thresholds 10,000 and 90,000: Direct below the first threshold,
Remote between, Local above.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from ..sim.config import ShuffleConfig, SimConfig
from ..sim.disk import DiskModel
from ..sim.network import NetworkModel


class ShuffleScheme(enum.Enum):
    """The shuffle schemes of Section III-B plus the baselines' disk path."""
    DIRECT = "direct"
    LOCAL = "local"
    REMOTE = "remote"
    DISK = "disk"
    #: Resolved at runtime per edge from the shuffle size.
    ADAPTIVE = "adaptive"


def select_scheme(edge_size: int, config: ShuffleConfig) -> ShuffleScheme:
    """Adaptive runtime selection by shuffle size (Section III-B)."""
    if edge_size < 0:
        raise ValueError("edge_size must be non-negative")
    if edge_size <= config.direct_threshold:
        return ShuffleScheme.DIRECT
    if edge_size <= config.local_threshold:
        return ShuffleScheme.REMOTE
    return ShuffleScheme.LOCAL


def resolve_scheme(
    requested: ShuffleScheme, edge_size: int, config: ShuffleConfig
) -> ShuffleScheme:
    """Resolve ADAPTIVE to a concrete scheme; pass others through."""
    if requested == ShuffleScheme.ADAPTIVE:
        return select_scheme(edge_size, config)
    return requested


@dataclass(frozen=True)
class ModeDecision:
    """One mode-controller resolution for a shuffle edge.

    ``static_scheme`` is what the threshold rule alone would pick;
    ``scheme`` is the controller's choice.  ``reason`` names the observed
    pressure that justified a switch (empty when no switch happened).
    """

    scheme: ShuffleScheme
    static_scheme: ShuffleScheme
    reason: str = ""

    @property
    def switched(self) -> bool:
        """True when the controller deviated from the static rule."""
        return self.scheme is not self.static_scheme


class ShuffleModeController:
    """Mid-job shuffle-mode switching (the FuxiShuffle direction).

    Schemes are resolved lazily, per edge, when the consumer stage is
    prepared — so a controller consulted at that point re-resolves every
    not-yet-started stage from *observed* state rather than static
    estimates:

    * **Cache Worker memory pressure** — when the workers backing a
      cache-mediated edge are nearly full, a borderline edge (shuffle size
      within ``switch_margin`` above ``direct_threshold``) is demoted to
      Direct Shuffle, keeping its bytes out of memory that would spill.
    * **Connection-setup cost** — when the observed handshake latency is
      congested (>= ``setup_promote_latency``), a borderline Direct edge is
      promoted to Remote Shuffle, trading M x N handshakes for M + N x Y.

    Scheme choice affects only timing, never which tasks run or what they
    produce, so switching is result-preserving by construction; the
    differential tests assert it anyway.
    """

    def __init__(self, config: ShuffleConfig) -> None:
        self.config = config
        #: Total switches decided, for metrics/obs accounting.
        self.switches = 0

    def resolve(
        self,
        requested: ShuffleScheme,
        edge_size: int,
        cache_utilization: float | Callable[[], float] = 0.0,
        setup_latency: float = 0.0,
    ) -> ModeDecision:
        """Resolve one edge from the static rule plus live observations.

        ``cache_utilization`` is the used fraction of the Cache Workers
        that would hold this edge, or a zero-argument callable returning
        it; the callable is invoked at most once, and only for a
        borderline Local/Remote edge, the one case that reads it.
        ``setup_latency`` is the currently observed per-connection setup
        time.  Explicitly requested (non-ADAPTIVE) schemes are never
        overridden.
        """
        static = resolve_scheme(requested, edge_size, self.config)
        if not self.config.mode_switching or requested is not ShuffleScheme.ADAPTIVE:
            return ModeDecision(static, static)
        margin = self.config.switch_margin
        if (
            static in (ShuffleScheme.LOCAL, ShuffleScheme.REMOTE)
            and edge_size <= self.config.direct_threshold * (1.0 + margin)
        ):
            if callable(cache_utilization):
                cache_utilization = cache_utilization()
            if cache_utilization >= self.config.pressure_demote_utilization:
                self.switches += 1
                return ModeDecision(ShuffleScheme.DIRECT, static, "cache-pressure")
        if (
            static is ShuffleScheme.DIRECT
            and setup_latency >= self.config.setup_promote_latency
            and edge_size >= self.config.direct_threshold * (1.0 - margin)
        ):
            self.switches += 1
            return ModeDecision(ShuffleScheme.REMOTE, static, "setup-cost")
        return ModeDecision(static, static)


@dataclass(frozen=True)
class MergedTransfer:
    """Several tiny in-edges collapsed into one push-based transfer.

    Small-partition storms — a consumer stage fed by many edges whose
    partitions are each a few megabytes — pay one connection-setup and
    read phase per edge under per-edge shuffling.  Push-based merging
    sends all member partitions through a single merged transfer: the
    costs (and connections) of one edge carrying the summed bytes of all
    members, read once by each consumer task.
    """

    #: Edge keys folded into this transfer, in plan order.
    edges: tuple[str, ...]
    total_bytes: float
    #: Combined producer task count of all member edges.
    m: int
    #: Consumer task count (all members feed the same stage).
    n: int

    @property
    def size(self) -> int:
        """Merged shuffle size (drives scheme selection)."""
        return self.m * self.n


def plan_partition_merge(
    candidates: list[tuple[str, float, int]],
    n_consumers: int,
    config: ShuffleConfig,
) -> tuple[MergedTransfer | None, list[str]]:
    """Plan push-based merging for one consumer stage's cross-unit edges.

    ``candidates`` lists the stage's cache-eligible in-edges as
    ``(edge_key, total_bytes, producer_count)``.  Edges at or below
    ``merge_max_bytes`` are merge-eligible; when at least
    ``merge_min_edges`` of them exist they collapse into one
    :class:`MergedTransfer`.  Returns the merged transfer (or ``None``)
    plus the edge keys left to per-edge shuffling.
    """
    if n_consumers < 1:
        raise ValueError("n_consumers must be >= 1")
    tiny = [c for c in candidates if c[1] <= config.merge_max_bytes]
    if len(tiny) < config.merge_min_edges:
        return None, [key for key, _, _ in candidates]
    tiny_keys = {key for key, _, _ in tiny}
    merged = MergedTransfer(
        edges=tuple(key for key, _, _ in tiny),
        total_bytes=sum(b for _, b, _ in tiny),
        m=sum(m for _, _, m in tiny),
        n=n_consumers,
    )
    rest = [key for key, _, _ in candidates if key not in tiny_keys]
    return merged, rest


def connection_count(scheme: ShuffleScheme, m: int, n: int, y: int) -> int:
    """Worst-case TCP connection count for a shuffle of M producers and N
    consumers spread over Y machines (Section III-B formulas)."""
    if min(m, n, y) < 1:
        raise ValueError("m, n, y must all be >= 1")
    if scheme == ShuffleScheme.DIRECT:
        return m * n
    if scheme == ShuffleScheme.LOCAL:
        return m + n + y * (y - 1) // 2
    if scheme == ShuffleScheme.REMOTE:
        return m + n * y
    if scheme == ShuffleScheme.DISK:
        # Reducers fetch from every mapper's machine-local files.
        return m * n
    raise ValueError(f"cannot count connections for {scheme}")


def memory_copies(scheme: ShuffleScheme) -> int:
    """Extra memory copies relative to Direct Shuffle (Section III-B)."""
    return {
        ShuffleScheme.DIRECT: 0,
        ShuffleScheme.LOCAL: 2,
        ShuffleScheme.REMOTE: 1,
        ShuffleScheme.DISK: 0,
    }[scheme]


@dataclass(frozen=True)
class ShuffleCost:
    """Per-task costs of one shuffle edge under one scheme."""

    scheme: ShuffleScheme
    #: Seconds each producer task spends in its shuffle-write phase.
    write_per_task: float
    #: Seconds each consumer task spends in its shuffle-read phase.
    read_per_task: float
    #: Total TCP connections the shuffle holds open while active.
    connections: int
    #: Modelled retransmission rate during the transfer.
    retx_rate: float


class ShuffleCostModel:
    """Computes per-task shuffle phase durations for every scheme.

    The model charges:

    * **write** — producer-side work: memory copies into the Cache Worker
      (LOCAL/REMOTE), partition-file writes (DISK), or connection setup to
      all successors plus the send itself (DIRECT);
    * **read** — consumer-side work: connection setup to its sources plus
      the network transfer at the bandwidth the contended NIC yields, or a
      local-memory read after Cache Worker push (LOCAL).
    """

    def __init__(self, config: SimConfig, network: NetworkModel, disk: DiskModel) -> None:
        self.config = config
        self.network = network
        self.disk = disk

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _per_machine(count: int, machines: int) -> int:
        return max(1, math.ceil(count / max(1, machines)))

    def edge_cost(
        self,
        scheme: ShuffleScheme,
        total_bytes: float,
        m: int,
        n: int,
        y: int,
        concurrent_connections: int | None = None,
        barrier: bool = True,
    ) -> ShuffleCost:
        """Cost of moving ``total_bytes`` from M producers to N consumers
        over Y machines under ``scheme``.

        ``concurrent_connections`` is the cluster-wide open-connection count
        *including* this shuffle's own connections; when ``None`` the
        network model's current count plus this shuffle's is used, so every
        scheme sees the same global congestion.

        ``barrier`` selects Direct Shuffle's mechanics: on a pipeline edge
        producers push to live consumers (cost on the write side); on a
        barrier edge the consumers do not exist yet when producers finish,
        so producers hold their output and the re-launched consumers pull it
        (cost on the read side).
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if min(m, n, y) < 1:
            raise ValueError("m, n, y must all be >= 1")
        conns = connection_count(scheme, m, n, y)
        if concurrent_connections is None:
            concurrent_connections = self.network.open_connections + conns

        out_per_producer = total_bytes / m
        in_per_consumer = total_bytes / n
        producers_per_machine = self._per_machine(m, y)
        consumers_per_machine = self._per_machine(n, y)

        copy_time_write = self.network.memory_copy_time(out_per_producer)
        copy_time_read = self.network.memory_copy_time(in_per_consumer)
        retx = self.network.retransmission_rate(concurrent_connections)

        if scheme == ShuffleScheme.DIRECT:
            # M x N task-to-task connections; under incast both the
            # handshakes and the goodput degrade ("for a task with hundreds
            # of successors, it usually takes dozens of seconds to build all
            # the TCP connections", Section V-E).
            if barrier:
                # Consumers pull from every producer once they launch.
                setup = self.network.setup_time_for(m, concurrent_connections)
                recv_bw = self.network.effective_bandwidth(
                    consumers_per_machine, concurrent_connections
                )
                # Section III-B: Direct has 0 extra memory copies — the
                # producer already holds its output in executor memory, so
                # the barrier branch must not charge a copy the pipeline
                # branch (and ``memory_copies(DIRECT)``) say does not exist.
                write = 0.0
                read = setup + in_per_consumer / recv_bw + self.network.config.rtt
            else:
                # Producers push to gang-scheduled live consumers.
                setup = self.network.setup_time_for(n, concurrent_connections)
                send_bw = self.network.effective_bandwidth(
                    producers_per_machine, concurrent_connections
                )
                write = setup + out_per_producer / send_bw
                recv_bw = self.network.effective_bandwidth(
                    consumers_per_machine, concurrent_connections
                )
                read = in_per_consumer / recv_bw + self.network.config.rtt
            return ShuffleCost(scheme, write, read, conns, retx)

        if scheme == ShuffleScheme.LOCAL:
            # Producer copies into the local Cache Worker (2 extra copies in
            # total); Cache Workers exchange aggregated data over few,
            # long-lived machine-to-machine connections, store-and-forward
            # through both Cache Workers, run a coordination round to
            # collect each partition and notify the readers; the consumer
            # reads from local memory.
            relay_bw = self.network.effective_bandwidth(
                consumers_per_machine, concurrent_connections
            )
            relay = in_per_consumer / relay_bw
            chunk = self.config.cache_worker.spill_chunk_bytes
            hop = (
                in_per_consumer / self.network.config.nic_bandwidth
                + 2 * chunk / self.network.config.nic_bandwidth
            )
            write = 2 * copy_time_write
            read = (
                self.config.cache_worker.notify_latency
                + hop
                + relay
                + copy_time_read
            )
            return ShuffleCost(scheme, write, read, conns, retx)

        if scheme == ShuffleScheme.REMOTE:
            # Producer copies into the local Cache Worker (1 extra copy);
            # consumers pull their fragments from the Y Cache Workers, one
            # request per Cache Worker, effectively sequential per reader —
            # this is what makes Remote degrade for very wide shuffles while
            # still beating Direct's M x N handshakes at medium sizes.
            write = copy_time_write
            per_pull = (
                self.network.connection_setup_time(concurrent_connections)
                * self.network.config.remote_pull_serialization
            )
            pull_bw = self.network.effective_bandwidth(
                consumers_per_machine, concurrent_connections
            )
            read = (
                y * per_pull
                + in_per_consumer / pull_bw
                + self.network.config.rtt
            )
            return ShuffleCost(scheme, write, read, conns, retx)

        if scheme == ShuffleScheme.DISK:
            # Producer sorts/writes one partition file per consumer; consumer
            # fetches its fragment from every producer's machine — M x N
            # fragments in total.  Per-fragment service time escalates with
            # the cluster-wide fragment/connection load (disk queues and
            # shuffle-service backlog), which is what makes wide disk
            # shuffles collapse superlinearly (Table I's 1500x1500 case).
            write = self.disk.write_time(
                out_per_producer, n_files=n, concurrent_tasks=producers_per_machine
            )
            disk_read = self.disk.read_time(
                in_per_consumer,
                n_files=0,
                concurrent_tasks=consumers_per_machine,
                random_access=True,
            )
            load = concurrent_connections / self.network.retx_saturation
            load_factor = 1.0 + 3.0 * load
            fragment_latency = m * self.disk.config.per_file_overhead * load_factor
            fetch_bw = self.network.effective_bandwidth(
                consumers_per_machine, concurrent_connections
            )
            setup = self.network.setup_time_for(
                min(m, y * 4), concurrent_connections
            )
            read = disk_read + fragment_latency + setup + in_per_consumer / fetch_bw
            return ShuffleCost(scheme, write, read, conns, retx)

        raise ValueError(f"no cost model for scheme {scheme}")
