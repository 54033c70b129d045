"""Outside-in host-time spans around each layer's entry points.

The benchmark does not instrument the program: it replaces, for the length
of a traced iteration, the callables each layer exposes — at the name the
*caller* looks up — with wrappers that push a span onto an in-memory stack.
The span model follows an entry/exit/parent/nesting record per call: a span
knows its name, start, end and the span that was open when it began.  A
span's *self time* is its duration minus the time its child spans cover, so
the self times of every span under one root add up to the root's duration
exactly; the root's own self time is the residual no wrapper claimed.

Event handlers are attributed by callback name: every callback handed to
``Simulator.schedule``/``schedule_at``/``schedule_batch`` is wrapped with the
span name :data:`HANDLERS` gives its qualified name.  SQL operator kernels
are not wrapped; their self times come from the ``columnar.<kind>`` spans the
columnar engine already records when ``run_sql`` gets a ``RecordingTracer``.

Spans inside the program (for private helpers such as stage preparation)
are a later change; until then a handler's self time includes them.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

#: Root span opened around every timed operation (a replay, a query).
ROOT = "bench.op"

#: Event-handler span names, keyed by the callback's ``__qualname__``.
#: Callbacks not listed here are counted as ``core.runtime.other``.
HANDLERS = {
    "SwiftRuntime._on_task_finish": "core.runtime.on_task_finish",
    "SwiftRuntime._on_job_submitted": "core.runtime.on_job_submitted",
    "SwiftRuntime._on_failure": "core.runtime.on_failure",
    "JobGateway._on_arrival": "service.gateway.on_arrival",
    "JobGateway._dispatch_event": "service.gateway.dispatch",
}
OTHER_HANDLER = "core.runtime.other"

#: (module, attribute path, span name).  Each attribute is patched where its
#: caller looks it up: ``pick_replica_machines`` is imported by name into
#: ``repro.core.runtime``, so that module's binding is the one replaced.
#: ``SwiftRuntime._flush_finishes`` is patched on the class because the
#: runtime calls it directly as well as scheduling it as a drain event.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "sim.engine.run"),
    ("repro.core.runtime", "SwiftRuntime._flush_finishes", "core.runtime.flush_finishes"),
    ("repro.core.scheduler", "ResourceScheduler.schedule", "core.scheduler.schedule"),
    ("repro.core.scheduler", "ResourceScheduler.request", "core.scheduler.request"),
    ("repro.core.scheduler", "ResourceScheduler.pool_pressure", "core.scheduler.pool_pressure"),
    ("repro.core.runtime", "pick_locality_machines", "core.scheduler.pick_locality_machines"),
    ("repro.core.runtime", "pick_replica_machines", "core.scheduler.pick_replica_machines"),
    ("repro.core.partition", "SwiftPartitioner.partition", "core.partition.partition"),
    ("repro.core.shuffle", "ShuffleCostModel.edge_cost", "core.shuffle.edge_cost"),
    ("repro.core.shuffle", "ShuffleModeController.resolve", "core.shuffle.resolve"),
    ("repro.core.runtime", "plan_partition_merge", "core.shuffle.plan_partition_merge"),
    ("repro.core.cache_worker", "CacheWorker.write", "core.cache_worker.write"),
    ("repro.core.cache_worker", "CacheWorker.read", "core.cache_worker.read"),
    ("repro.core.cache_worker", "CacheWorker.consume", "core.cache_worker.consume"),
    ("repro.sim.network", "NetworkModel.register_connections", "sim.network.register_connections"),
    ("repro.sim.network", "NetworkModel.release_connections", "sim.network.release_connections"),
    ("repro.sim.network", "NetworkModel.connection_setup_time", "sim.network.connection_setup_time"),
    ("repro.core.admin", "SwiftAdmin.admit_ops", "core.admin.admit_ops"),
    ("repro.core.admin", "SwiftAdmin.dispatch_times", "core.admin.dispatch_times"),
    ("repro.core.admin", "SwiftAdmin.plan_cached", "core.admin.plan_cached"),
    ("repro.core.runtime", "plan_recovery", "core.failure.plan_recovery"),
    ("repro.audit.ledger", "ResourceLedger.reconcile", "audit.ledger.reconcile"),
    ("repro.audit.ledger", "ResourceLedger.reconcile_network", "audit.ledger.reconcile_network"),
    ("repro.audit.ledger", "ResourceLedger.reconcile_cache_worker",
     "audit.ledger.reconcile_cache_worker"),
    ("repro.audit.ledger", "ResourceLedger.reconcile_executors", "audit.ledger.reconcile_executors"),
    ("repro.service.gateway", "JobGateway._on_job_done", "service.gateway.on_job_done"),
    ("repro.api.service", "collect_jobs", "obs.metrics.collect_jobs"),
    ("repro.sql.parser", "tokenize", "sql.lexer.tokenize"),
    ("repro.sql.dispatch", "parse", "sql.parser.parse"),
    ("repro.sql.dispatch", "plan_statement", "sql.logical.plan_statement"),
    ("repro.sql.columnar", "ColumnarExecutor.compile", "sql.columnar.compile"),
    ("repro.sql.columnar", "ColumnarExecutor.run", "sql.columnar.run"),
)

#: Kernel entry points whose callbacks get handler spans.
_SCHEDULERS = ("schedule", "schedule_at", "schedule_batch")


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    """The object that owns ``path``'s last attribute, and that attribute."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type) and attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is inherited; patch its defining class")
    return owner, attr


def patch_targets() -> list[tuple[Any, str]]:
    """Every (owner, attribute) pair :meth:`SpanRecorder.instrument` replaces."""
    targets = [_resolve(module, path) for module, path, _ in PATCHES]
    engine = importlib.import_module("repro.sim.engine").Simulator
    targets.extend((engine, name) for name in _SCHEDULERS)
    return targets


class SpanRecorder:
    """Stack-based span recorder: per-name self time, call counts, spans.

    ``stats[name]`` is ``[self_seconds, calls]`` summed over every traced
    operation.  With ``keep_spans`` each finished span is also kept as
    ``(id, parent_id, name, start, end)`` for the JSONL export.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.stats: dict[str, list[float]] = {}
        self.spans: Optional[list[tuple[int, int, str, float, float]]] = (
            [] if keep_spans else None
        )
        #: Open spans, innermost last: ``[start, child_seconds, id, parent_id]``.
        self._stack: list[list[float]] = []
        self._next_id = 0
        #: Bytes handed to ``CacheWorker.write`` while traced.
        self.bytes_written = 0.0
        #: Simulated grant waits (grant time - request enqueue time).
        self.grant_waits: list[float] = []
        #: The kernel last entered through ``Simulator.run`` (grant clock).
        self._sim: Any = None
        self._observe: dict[str, Callable[[tuple, dict, Any], None]] = {
            "core.cache_worker.write": self._cache_write,
            "core.scheduler.schedule": self._grants,
        }

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self) -> list[float]:
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else 0
        frame = [0.0, 0.0, self._next_id, parent]
        self._stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _exit(self, name: str, frame: list[float]) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0.0, 0]
        entry[0] += duration - frame[1]
        entry[1] += 1
        if stack:
            stack[-1][1] += duration
        if self.spans is not None:
            self.spans.append((int(frame[2]), int(frame[3]), name, frame[0], end))

    @contextmanager
    def root(self) -> Iterator[None]:
        """Open the root span of one timed operation."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(ROOT, frame)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name``.

        Calls made while no root span is open (set-up, result checks) pass
        straight through, so every recorded second lies inside a root.
        """
        stack = self._stack
        enter, exit_ = self._enter, self._exit
        observe = self._observe.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.bench_span = name  # type: ignore[attr-defined]
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Counts read at a boundary (need the call's arguments or result)
    # ------------------------------------------------------------------
    def _cache_write(self, args: tuple, kwargs: dict, result: Any) -> None:
        # CacheWorker.write(self, job_id, edge_key, n_bytes, ...)
        self.bytes_written += kwargs.get("n_bytes", args[3] if len(args) > 3 else 0.0)

    def _grants(self, args: tuple, kwargs: dict, result: Any) -> None:
        now = self._sim.now if self._sim is not None else 0.0
        self.grant_waits.extend(now - grant.request.enqueue_time for grant in result)

    def _engine_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``Simulator.run``: remember the kernel so grant times can be read."""
        traced = self.wrap("sim.engine.run", fn)

        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            self._sim = sim
            return traced(sim, *args, **kwargs)

        run.bench_span = "sim.engine.run"  # type: ignore[attr-defined]
        return run

    def _handler(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        func = getattr(callback, "__func__", callback)
        if getattr(func, "bench_span", None) is not None:
            return callback  # already a patched entry point (flush)
        name = HANDLERS.get(getattr(callback, "__qualname__", ""), OTHER_HANDLER)
        return self.wrap(name, callback)

    def _scheduler(self, method: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        handler = self._handler
        if method == "schedule_batch":
            def schedule_batch(sim: Any, items: Any, **kwargs: Any) -> Any:
                wrapped = [(delay, handler(cb), args) for delay, cb, args in items]
                return fn(sim, wrapped, **kwargs)
            return schedule_batch

        def schedule(sim: Any, when: float, callback: Any, *args: Any, **kwargs: Any) -> Any:
            return fn(sim, when, handler(callback), *args, **kwargs)
        return schedule

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Install every wrapper; restore the original attributes on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for module, path, name in PATCHES:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if name == "sim.engine.run":
                    setattr(owner, attr, self._engine_run(original))
                else:
                    setattr(owner, attr, self.wrap(name, original))
            engine = importlib.import_module("repro.sim.engine").Simulator
            for method in _SCHEDULERS:
                original = vars(engine)[method]
                saved.append((engine, method, original))
                setattr(engine, method, self._scheduler(method, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def split_sql_run(
        self, ops: dict[str, tuple[float, int]]
    ) -> dict[str, tuple[float, int]]:
        """``stats`` with ``sql.columnar.run`` split into operator kernels.

        ``ops`` maps operator kind to (seconds, executions) as the columnar
        engine reports them: per-operator times already exclusive of child
        operators, all spent inside ``run``.  What is left of ``run``'s self
        time (``run_other``) is the result materialization.
        """
        stats = {name: (entry[0], int(entry[1])) for name, entry in self.stats.items()}
        if "sql.columnar.run" not in stats:
            return stats
        run_self, run_calls = stats.pop("sql.columnar.run")
        for kind, entry in ops.items():
            stats[f"sql.columnar.op.{kind}"] = entry
        stats["sql.columnar.run_other"] = (
            run_self - sum(seconds for seconds, _ in ops.values()), run_calls
        )
        return stats
