"""The traced pass: the same inputs, in process, through the engine,
``EnginePool``, ``QueryScheduler`` and ``serve_lines``.

Spans are recorded by the benchmark around calls into each layer's
public functions (nothing inside the program is instrumented): a
``TracedPool`` stands between the scheduler and the real pool, and the
driver loop times the scheduler and server entry points. Searches
alternate between the two entry points -- even ones through
``serve_lines``, odd ones through ``QueryScheduler.answer`` -- so one
pass yields both overheads without running any query twice.

The pass replays a fixed number of ops, so its counters (candidates,
solver runs, label updates, stream tuples) repeat exactly for a seed.
Afterwards a few of its queries are answered again: twice through a
cache-enabled scheduler (the cache-hit path), and twice each through a
scheduler over the proxy and one straight over the pool, in the order
plain, traced, traced, plain (the cost of the recording itself).
"""

from __future__ import annotations

import io
import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ALPHA, K, TRACED_OPS, Op, Plan

#: Queries answered again after the pass: twice through a cache-enabled
#: scheduler (so the cache-hit path is timed on cache-off workloads
#: too), then with and without the span-recording proxy.
PROBE_QUERIES = 5


@dataclass
class Span:
    name: str
    trace: int
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory spans with stack nesting.

    One request is in flight at a time (a closed loop), so a single
    stack is correct even though the scheduler runs the pool call on
    its worker thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self.trace, len(self.spans), parent,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "trace": s.trace, "id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


@dataclass
class EngineCall:
    """What one ``EnginePool.search`` under the proxy did."""

    wall_ms: float
    drain_ms: float
    stats: object
    stream_tuples: int
    hits: int
    after_write: bool


class TracedPool:
    """A ``SearchBackend`` that records spans around the real pool's
    public calls and delegates everything else."""

    def __init__(self, pool, tracer: Tracer) -> None:
        self._pool = pool
        self._tracer = tracer
        self.calls: list[EngineCall] = []
        self.recording = True
        self.after_write = False

    def __getattr__(self, name):
        return getattr(self._pool, name)

    @property
    def collection(self):
        return self._pool.collection

    @property
    def alpha(self):
        return self._pool.alpha

    @property
    def version(self):
        return self._pool.version

    def search(self, query, k=10, *, alpha=None, stream=None,
               time_budget=None):
        tracer = self._tracer
        drain_ms = 0.0
        with tracer.span("pool.search"):
            if stream is None:
                with tracer.span("index.drain") as drain:
                    stream = self._pool.drain(query, alpha=alpha)
                drain_ms = drain.ms
            with tracer.span("engine.search") as span:
                result = self._pool.search(
                    query, k, alpha=alpha, stream=stream,
                    time_budget=time_budget,
                )
        if self.recording:
            self.calls.append(EngineCall(
                span.ms, drain_ms, result.stats, len(stream),
                len(result.entries), self.after_write,
            ))
            self.after_write = False
        return result

    def _mutate(self, method: str, *args, **kwargs):
        with self._tracer.span("store.mutation"):
            return getattr(self._pool, method)(*args, **kwargs)

    def insert(self, tokens, *, name=None):
        return self._mutate("insert", tokens, name=name)

    def delete(self, ref):
        return self._mutate("delete", ref)

    def replace(self, ref, tokens):
        return self._mutate("replace", ref, tokens)


@dataclass
class TracedRecord:
    op: Op
    response: dict
    entry: str = ""
    entry_ms: float = 0.0

    @property
    def failed(self) -> bool:
        return "error" in self.response


@dataclass
class TracedPass:
    tracer: Tracer
    records: list[TracedRecord] = field(default_factory=list)
    calls: list[EngineCall] = field(default_factory=list)
    cache_probe_ms: list[float] = field(default_factory=list)
    #: Per query: ``QueryScheduler.answer`` wall time through the
    #: ``TracedPool`` proxy over the same call straight on the pool.
    overhead_ratios: list[float] = field(default_factory=list)


def _build_pool(plan: Plan, tracer: Tracer):
    from repro.core.config import FilterConfig
    from repro.service import EnginePool
    from repro.store import load_snapshot

    with tracer.span("store.load"):
        loaded = load_snapshot(plan.corpus.snapshot)
    with tracer.span("store.overlay"):
        overlay = loaded.mutable()
    with tracer.span("store.pool_build"):
        pool = EnginePool(
            overlay, loaded.token_index, loaded.sim, alpha=ALPHA,
            config=FilterConfig.koios(engine="columnar"),
        )
    with tracer.span("store.first_query"):
        pool.search(frozenset(plan.warmup[0].tokens), K)
    return pool


def traced_pass(plan: Plan, workdir: Path) -> TracedPass:
    """Replay the head of the timed stream, the checking rotations and
    the write burst; then time the cache-hit path and the tracing
    overhead."""
    from repro.service import QueryScheduler, ResultCache, serve_lines
    from repro.service.request import SearchRequest
    from repro.store import WriteAheadLog

    tracer = Tracer()
    pool = _build_pool(plan, tracer)
    proxy = TracedPool(pool, tracer)
    wal = WriteAheadLog(workdir / "traced.wal") if plan.wal else None
    cache = ResultCache(capacity=plan.cache_size) if plan.cache_size else None
    scheduler = QueryScheduler(proxy, cache=cache, wal=wal)
    ops = list(itertools.islice(plan.stream(), TRACED_OPS[plan.workload]))
    out = TracedPass(tracer)
    searches = 0
    try:
        for number, op in enumerate(
            ops + plan.checks + plan.burst, start=1
        ):
            tracer.trace = number
            if op.is_write:
                with tracer.span("scheduler.write"):
                    if op.kind == "insert":
                        set_id = scheduler.insert_set(op.tokens, name=op.name)
                    elif op.kind == "replace":
                        set_id = scheduler.replace_set(op.name, op.tokens)
                    else:
                        set_id = scheduler.delete_set(op.name)
                with tracer.span("pool.refresh"):
                    pool.refresh()
                proxy.after_write = True
                out.records.append(
                    TracedRecord(op, {"op": op.kind, "set_id": set_id})
                )
                continue
            obj = {"id": f"t{number}", "query": list(op.tokens), "k": K}
            if searches % 2 == 0:
                entry = "server"
                buffer = io.StringIO()
                with tracer.span("server.serve_lines") as span:
                    serve_lines(
                        scheduler, io.StringIO(json.dumps(obj) + "\n"),
                        buffer,
                    )
                response = json.loads(buffer.getvalue())
            else:
                entry = "scheduler"
                with tracer.span("scheduler.answer") as span:
                    answer = scheduler.answer(SearchRequest.from_obj(obj))
                response = json.loads(answer.to_json())
            searches += 1
            out.records.append(TracedRecord(op, response, entry, span.ms))
        queries = [
            SearchRequest.from_obj(
                {"id": "probe", "query": list(op.tokens), "k": K}
            )
            for op in ops if not op.is_write
        ][:PROBE_QUERIES]
        proxy.recording = False
        _cache_probe(proxy, queries, out)
        _overhead_probe(pool, proxy, queries, out)
    finally:
        scheduler.shutdown()
        pool.shutdown()
    out.calls.extend(proxy.calls)
    return out


def _cache_probe(proxy, queries, out: TracedPass) -> None:
    """Time cache hits: answer each query twice through a scheduler
    with a result cache (the workload's own cache, when it has one,
    already produced hits in the pass)."""
    from repro.service import QueryScheduler, ResultCache

    for request in queries:
        probe = QueryScheduler(proxy, cache=ResultCache(capacity=8))
        try:
            probe.answer(request)
            started = time.perf_counter()
            answer = probe.answer(request)
            elapsed = (time.perf_counter() - started) * 1000.0
        finally:
            probe.shutdown()
        if not answer.cached:
            raise RuntimeError("cache probe: second answer was not cached")
        out.cache_probe_ms.append(elapsed)


def _overhead_probe(pool, proxy, queries, out: TracedPass) -> None:
    """Answer each query through two cache-less schedulers, one over
    the span-recording proxy and one straight over the pool, in the
    order plain, traced, traced, plain, and keep the per-query ratio of
    the traced to the plain wall time."""
    from repro.service import QueryScheduler

    schedulers = {"plain": QueryScheduler(pool), "traced": QueryScheduler(proxy)}
    try:
        for request in queries:
            wall = {"plain": 0.0, "traced": 0.0}
            for which in ("plain", "traced", "traced", "plain"):
                started = time.perf_counter()
                schedulers[which].answer(request)
                wall[which] += time.perf_counter() - started
            out.overhead_ratios.append(wall["traced"] / wall["plain"])
    finally:
        for scheduler in schedulers.values():
            scheduler.shutdown()


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: TracedPass, plan: Plan, served) -> dict:
    """Every per-layer metric from the traced pass (and, for the
    gateway, from the served pass it is compared with)."""
    tracer = traced.tracer
    searches = [r for r in traced.records if not r.op.is_write]
    uncached = [r for r in searches if not r.response.get("cached")]
    cached = [r for r in searches if r.response.get("cached")]

    def overhead(entry: str) -> float:
        return _p50(
            r.entry_ms - r.response["seconds"] * 1000.0
            for r in uncached if r.entry == entry
        )

    calls = traced.calls
    timers = [c.stats.timer for c in calls]
    stats = [c.stats for c in calls]
    solver_runs = sum(
        s.em_full + s.em_early_terminated + s.resolution_em for s in stats
    )
    hits = sum(c.hits for c in calls)
    lookups = len(searches) if plan.cache_size else 0
    timed = [r for r in served.phase("timed") if not r.op.is_write]
    gateway = _p50(
        (r.seconds - r.response["seconds"]) * 1000.0
        for r in timed if not r.response.get("cached")
    )
    burst = [r.seconds * 1000.0 for r in served.phase("burst")
             if r.op.is_write]
    return {
        "gateway.overhead_p50_ms": (gateway, "ms"),
        "gateway.write_p50_ms": (_p50(burst), "ms"),
        "server.overhead_p50_ms": (overhead("server"), "ms"),
        "scheduler.overhead_p50_ms": (overhead("scheduler"), "ms"),
        "scheduler.cache_hits": (len(cached), "count"),
        "scheduler.cache_lookups": (lookups, "count"),
        "scheduler.cache_hit_ratio": (
            len(cached) / lookups if lookups else 0.0, "ratio"
        ),
        "scheduler.cache_hit_p50_ms": (
            _p50(r.entry_ms for r in cached) if cached
            else _p50(traced.cache_probe_ms), "ms"
        ),
        "scheduler.write_ms": (
            _p50(s.ms for s in tracer.named("scheduler.write")), "ms"
        ),
        "store.mutation_ms": (
            _p50(s.ms for s in tracer.named("store.mutation")), "ms"
        ),
        "pool.refresh_ms": (
            _p50(s.ms for s in tracer.named("pool.refresh")), "ms"
        ),
        "engine.refine_after_write_ms": (
            _p50(
                c.stats.timer.seconds("refinement") * 1000.0
                for c in calls if c.after_write
            ), "ms"
        ),
        "store.load_ms": (_sum_ms(tracer, "store.load"), "ms"),
        "store.overlay_ms": (_sum_ms(tracer, "store.overlay"), "ms"),
        "store.pool_build_ms": (_sum_ms(tracer, "store.pool_build"), "ms"),
        "store.first_query_ms": (_sum_ms(tracer, "store.first_query"), "ms"),
        "index.drain_ms": (_p50(c.drain_ms for c in calls), "ms"),
        "index.stream_tuples": (sum(c.stream_tuples for c in calls), "count"),
        "engine.refine_ms": (
            _p50(t.seconds("refinement") * 1000.0 for t in timers), "ms"
        ),
        "engine.verify_ms": (
            _p50(t.seconds("postprocessing") * 1000.0 for t in timers), "ms"
        ),
        "engine.unattributed_ms": (
            _p50(c.wall_ms - c.stats.timer.total * 1000.0 for c in calls),
            "ms",
        ),
        "engine.candidates": (sum(s.candidates for s in stats), "count"),
        "engine.refinement_pruned": (
            sum(s.refinement_pruned for s in stats), "count"
        ),
        "engine.no_em": (sum(s.no_em for s in stats), "count"),
        "matching.solver_runs": (solver_runs, "count"),
        "matching.label_updates": (
            sum(s.em_label_updates for s in stats), "count"
        ),
        "matching.results_per_run": (
            hits / solver_runs if solver_runs else 0.0, "ratio"
        ),
        "tracing.overhead_pct": (
            (statistics.median(traced.overhead_ratios) - 1.0) * 100.0, "%"
        ),
    }


def _sum_ms(tracer: Tracer, name: str) -> float:
    return sum(s.ms for s in tracer.named(name))
