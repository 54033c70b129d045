"""Calibration constants for the cluster simulator.

Every physical quantity used by the discrete-event substrate lives here so
that experiments can be re-calibrated in one place.  The defaults are chosen
to match the hardware described in Section V-A of the paper (100-node and
2,000-node clusters, 10 GbE NICs, SATA spindles) and the execution-log
observations of Section V-E (TCP connection setup of hundreds of milliseconds
under congestion, retransmission rates of up to 3% for Direct Shuffle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import codec
from ..codec import Codec


GiB = 1024 ** 3
MiB = 1024 ** 2
KiB = 1024


@dataclass
class NetworkConfig(Codec):
    """Parameters of the network transfer and TCP connection model."""

    #: Usable per-NIC bandwidth in bytes/second (10 GbE with protocol overhead).
    nic_bandwidth: float = 1.1e9
    #: Baseline latency to establish one TCP connection on an idle network.
    conn_setup_base: float = 0.0008
    #: Connection-setup latency under heavy congestion ("hundreds of
    #: milliseconds in a congested network", Section V-E).
    conn_setup_congested: float = 0.35
    #: Number of concurrent connections at which setup latency reaches the
    #: midpoint between base and congested values.  This and
    #: ``retx_saturation`` are calibrated for a cluster of
    #: ``reference_machines`` machines; the network model scales them
    #: linearly with cluster size, since incast congestion is a per-NIC,
    #: not a global, phenomenon.
    conn_congestion_midpoint: float = 150_000.0
    #: Cluster size the congestion thresholds are calibrated at.
    reference_machines: int = 100
    #: How many connection handshakes a single task can run in parallel.
    conn_parallelism: int = 24
    #: Connection count at which the retransmission rate saturates at
    #: ``retx_cap``.  The rate grows quadratically up to that point —
    #: incast collapse is superlinear in connection count — so Direct
    #: Shuffle at ~160k connections hits the cap (~3%, Section V-E) while
    #: cache-mediated schemes at a few thousand connections stay below
    #: 0.02%, matching the paper's measurements.
    retx_saturation: float = 160_000.0
    #: Upper bound on the modelled retransmission rate.
    retx_cap: float = 0.03
    #: Effective-throughput penalty per unit of retransmission rate: goodput
    #: is scaled by ``1 / (1 + penalty * retx_rate)``.  TCP collapses far
    #: more than proportionally under incast, hence a large multiplier (a 3%
    #: retransmission rate roughly triples transfer times).
    retx_throughput_penalty: float = 65.0
    #: One-way propagation latency between two machines.
    rtt: float = 0.0002
    #: Serialization factor of Remote Shuffle's per-Cache-Worker pulls: a
    #: reader issues its Y fragment requests mostly sequentially, and each
    #: pull queues behind the other readers at the serving Cache Worker.
    remote_pull_serialization: float = 2.0
    #: Effective bandwidth of a Cache-Worker memory copy (bytes/second).
    #: This is an end-to-end IPC path — serialize, cross a process
    #: boundary, deserialize — not a raw memcpy, hence well below DRAM
    #: bandwidth.  It prices the "additional memory copies" that make
    #: Local/Remote Shuffle lose to Direct on small shuffles (Fig. 12).
    memory_bandwidth: float = 1.5e9

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if self.nic_bandwidth <= 0:
            raise ValueError("nic_bandwidth must be positive")
        if self.conn_setup_base < 0 or self.conn_setup_congested < self.conn_setup_base:
            raise ValueError("connection setup latencies must satisfy 0 <= base <= congested")
        if not 0 <= self.retx_cap <= 1:
            raise ValueError("retx_cap must be a rate in [0, 1]")
        if self.conn_parallelism < 1:
            raise ValueError("conn_parallelism must be >= 1")


@dataclass
class DiskConfig(Codec):
    """Parameters of the spinning-disk model used for disk shuffle and spill."""

    #: Effective sequential throughput of one spindle in bytes/second.
    sequential_bandwidth: float = 120e6
    #: Number of spindles per machine (the 100-node cluster has 12).
    disks_per_machine: int = 12
    #: Fixed per-file overhead (open/seek/close) in seconds.  Disk shuffle
    #: materialises one partition file per (map task, reduce partition) pair,
    #: so this term dominates for wide shuffles.
    per_file_overhead: float = 0.0025
    #: Penalty factor for small random reads relative to sequential access.
    random_penalty: float = 1.8

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if self.sequential_bandwidth <= 0:
            raise ValueError("sequential_bandwidth must be positive")
        if self.disks_per_machine < 1:
            raise ValueError("disks_per_machine must be >= 1")


@dataclass
class CacheWorkerConfig(Codec):
    """Parameters of the per-machine Cache Worker (Section III-B)."""

    #: Bytes of RAM each Cache Worker may use for shuffle data.
    memory_capacity: int = 48 * GiB
    #: Chunk size used when the LRU policy swaps data to disk.  Large chunks
    #: keep the spill sequential ("this can be done in large data chunk").
    spill_chunk_bytes: int = 64 * MiB
    #: Latency of the Cache-Worker coordination round that collects a
    #: partition and notifies the reader tasks (Local Shuffle's push path).
    notify_latency: float = 0.15

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if not isinstance(self.memory_capacity, int):
            raise ValueError(
                f"memory_capacity must be an int byte count, got {self.memory_capacity!r}"
            )
        if self.memory_capacity <= 0:
            raise ValueError("memory_capacity must be positive")
        if self.spill_chunk_bytes <= 0:
            raise ValueError("spill_chunk_bytes must be positive")


@dataclass
class ShuffleConfig(Codec):
    """Adaptive shuffle selection thresholds and v2 resilience knobs.

    The shuffle *size* is the number of edges between all source-stage tasks
    and sink-stage tasks, i.e. M x N.  The production thresholds reported in
    the paper are 10,000 and 90,000 (Section III-B).  The v2 fields follow
    the FuxiShuffle direction: mid-job mode switching from observed memory
    and connection pressure, Cache Worker replication so a single worker
    loss fails over instead of re-running producers, and push-based merging
    of small-partition storms.
    """

    direct_threshold: int = 10_000
    local_threshold: int = 90_000
    #: Copies of every cache-mediated shuffle entry (1 = v1 behaviour: a
    #: single Cache Worker loss forces producer re-runs; 2 = one surviving
    #: replica per entry serves failover reads).
    replication_factor: int = 2
    #: Allow the per-edge mode controller to re-resolve schemes for
    #: not-yet-started stages from observed pressure.  Scheme choice only
    #: affects timing, never results (differentially tested).
    mode_switching: bool = True
    #: Cache Worker memory utilization above which the controller demotes
    #: borderline cache-mediated edges to Direct Shuffle.
    pressure_demote_utilization: float = 0.85
    #: Connection-setup latency (seconds) above which the controller
    #: promotes borderline Direct edges to a cache-mediated scheme.
    setup_promote_latency: float = 0.05
    #: How far past a threshold (as a fraction of it) an edge still counts
    #: as "borderline" for a pressure-driven switch.
    switch_margin: float = 0.5
    #: Minimum number of tiny cross-unit in-edges before push-based
    #: partition merging collapses them into one merged transfer.
    merge_min_edges: int = 4
    #: An in-edge is "tiny" (merge-eligible) when its total bytes are at
    #: or below this bound.
    merge_max_bytes: float = 8 * MiB

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if not 0 < self.direct_threshold < self.local_threshold:
            raise ValueError("thresholds must satisfy 0 < direct < local")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not 0 < self.pressure_demote_utilization <= 1:
            raise ValueError("pressure_demote_utilization must be in (0, 1]")
        if self.setup_promote_latency <= 0:
            raise ValueError("setup_promote_latency must be positive")
        if self.switch_margin < 0:
            raise ValueError("switch_margin must be non-negative")
        if self.merge_min_edges < 2:
            raise ValueError("merge_min_edges must be >= 2")
        if self.merge_max_bytes <= 0:
            raise ValueError("merge_max_bytes must be positive")


@dataclass
class AdminConfig(Codec):
    """Parameters of the Swift Admin controller model."""

    #: Serialized controller work to process one scheduling event (plan
    #: generation + dispatch bookkeeping).  This term bounds scalability.
    event_processing_time: float = 12e-6
    #: One-way latency from Admin to an Executor for plan dispatch.
    dispatch_latency: float = 0.002
    #: Latency for an Executor to self-report a state change (Section IV-A).
    self_report_latency: float = 0.05
    #: Heartbeat interval by cluster scale: (max machines, interval seconds).
    #: "5s, 10s, 15s for small, medium, large cluster respectively".
    heartbeat_intervals: tuple[tuple[int, float], ...] = (
        (500, 5.0),
        (5_000, 10.0),
        (1 << 62, 15.0),
    )
    #: Number of failed tasks within ``unhealthy_window`` seconds that marks
    #: a machine read-only.
    unhealthy_task_failures: int = 8
    unhealthy_window: float = 30.0

    def heartbeat_interval(self, n_machines: int) -> float:
        """Return the heartbeat interval for a cluster of ``n_machines``."""
        for limit, interval in self.heartbeat_intervals:
            if n_machines <= limit:
                return interval
        return self.heartbeat_intervals[-1][1]

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if self.event_processing_time < 0:
            raise ValueError("event_processing_time must be non-negative")
        if not self.heartbeat_intervals:
            raise ValueError("heartbeat_intervals must not be empty")


@dataclass
class RetryConfig(Codec):
    """Budgeted task re-runs with exponential backoff.

    Failure recovery re-runs a failed task at most ``max_task_retries``
    times; the next failure of the same task escalates to a job failure
    with an explicit reason instead of retrying forever.  Each re-run
    waits ``backoff_base * backoff_factor**(attempt-1)`` seconds (capped
    at ``backoff_cap``) plus a deterministic jitter drawn from the
    simulation RNG, so hot recovery loops spread out reproducibly.
    """

    #: Attempts beyond the first run before the job is failed.
    max_task_retries: int = 4
    #: Backoff before the first re-run, seconds.
    backoff_base: float = 0.2
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff wait, seconds.
    backoff_cap: float = 20.0
    #: Jitter as a fraction of the backoff (uniform in [0, frac * wait]).
    jitter_frac: float = 0.25

    def backoff(self, attempt: int) -> float:
        """Deterministic (pre-jitter) backoff before re-run ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbering starts at 1")
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor ** (attempt - 1))

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if self.max_task_retries < 1:
            raise ValueError("max_task_retries must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("backoff must satisfy 0 <= base <= cap")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if not 0 <= self.jitter_frac <= 1:
            raise ValueError("jitter_frac must be in [0, 1]")


@dataclass
class ExecutorConfig(Codec):
    """Executor launch model.

    Swift pre-launches long-running executors, so launch overhead is near
    zero.  Spark-style baselines pay package download + JVM start per job
    (Fig. 9(b): launching the critical tasks of Q9 takes over 71s).
    """

    #: Plan-arrival-to-run latency for a pre-launched executor.
    prelaunched_overhead: float = 0.05
    #: Mean cold-start overhead (package download + process launch).
    coldstart_mean: float = 3.5
    #: Half-width of the uniform jitter applied to cold starts.
    coldstart_jitter: float = 1.2

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range values."""
        if self.prelaunched_overhead < 0 or self.coldstart_mean < 0:
            raise ValueError("launch overheads must be non-negative")
        if self.coldstart_jitter < 0 or self.coldstart_jitter > self.coldstart_mean:
            raise ValueError("coldstart_jitter must be in [0, coldstart_mean]")


@dataclass
class SimConfig(Codec):
    """Top-level simulator configuration."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    cache_worker: CacheWorkerConfig = field(default_factory=CacheWorkerConfig)
    shuffle: ShuffleConfig = field(default_factory=ShuffleConfig)
    admin: AdminConfig = field(default_factory=AdminConfig)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    #: Processing throughput of one task in bytes/second of input consumed.
    task_processing_rate: float = 55e6
    #: Extra latency a pipeline edge adds to the consumer's completion (the
    #: final flush of streamed rows).
    pipeline_flush_latency: float = 0.08
    #: Random seed for all stochastic components.
    seed: int = 2021

    def validate(self) -> None:
        """Validate every nested section; raise ``ValueError`` on bad values."""
        self.network.validate()
        self.disk.validate()
        self.cache_worker.validate()
        self.shuffle.validate()
        self.admin.validate()
        self.executor.validate()
        self.retry.validate()
        if self.task_processing_rate <= 0:
            raise ValueError("task_processing_rate must be positive")

    def copy(self, **overrides: object) -> "SimConfig":
        """Return a deep copy, optionally replacing top-level fields."""
        return codec.replace(codec.copy(self), **overrides)


DEFAULT_CONFIG = SimConfig()
