"""The serving engine: session turns over an SSD-backed KV cache.

One :class:`ServingEngine` drives a :class:`~repro.serving.sessions.
SessionPool` against a storage backend.  Per session turn it

1. waits for a **decode slot** (continuous-batching capacity of the
   simulated GPU; the queue wait is the load-dependent part of TTFT);
2. asks the :class:`~repro.serving.kvstore.KvBlockStore` which of the
   session's KV blocks were evicted while the user was thinking, and
   **prefetches** them from SSD — through the CAM Table II device API
   (``prefetch``/``prefetch_synchronize``) when the backend is CAM, so
   the whole batch rides :meth:`CamManager.ring` and every hot-path
   subsystem (coalescing, reliability, admission control, the elastic
   controller) applies unchanged; per-block concurrent requests on the
   other backends;
3. runs prefill **overlapped** with the KV load when the backend's API
   is asynchronous (CAM), serially otherwise — the same convention the
   training workloads use (``overlap = backend.name == "cam"``);
4. decodes the response, **writing back** newly filled KV blocks as
   they are produced (asynchronously under CAM, inline otherwise), so
   every resident block stays clean and eviction is free.

Admission control composes without special cases in the manager: a shed
batch surfaces here as :class:`~repro.errors.OverloadError` and the
engine re-rings after a deterministic backoff — the client-side half of
the PR-4 overload contract.

All metric pushes go through :class:`~repro.serving.metrics.
ServingMetrics` and are guarded on one attribute test, keeping
metrics-on runs bit-identical in simulated history to metrics-off runs.

Host memory follows the sessions in flight, not the sessions scheduled:
a session's process, its :class:`Session` object and its generator
frame exist from its arrival to its last turn, the arrivals not yet due
are one packed :class:`_Arrivals` record with a single heap entry, and
TTFTs and queue waits are packed doubles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Generator, List, Optional

import numpy as np

from repro.backends.base import StorageBackend
from repro.cache.gpucache import GpuCache
from repro.errors import ConfigurationError, OverloadError, ReproError
from repro.obs.causal import mint_context
from repro.serving.kvstore import KvBlockStore
from repro.serving.metrics import ServingMetrics
from repro.serving.sessions import Session, SessionPool, Turn
from repro.sim.core import ReservedTimeline
from repro.sim.resources import Resource


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    backend: str
    policy: str
    num_sessions: int
    turns_done: int = 0
    tokens_done: int = 0
    #: simulated seconds from run start to last turn completion
    elapsed_s: float = 0.0
    #: per turn, in completion order, as packed doubles
    ttfts: array = field(default_factory=lambda: array("d"))
    queue_waits: array = field(default_factory=lambda: array("d"))
    kv_hits: int = 0
    kv_misses: int = 0
    kv_evictions: int = 0
    overload_retries: int = 0

    @property
    def tokens_per_s(self) -> float:
        return self.tokens_done / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def kv_hit_rate(self) -> float:
        total = self.kv_hits + self.kv_misses
        return self.kv_hits / total if total else 0.0

    def ttft_quantile(self, q: float) -> float:
        if not self.ttfts:
            return 0.0
        return float(np.quantile(np.asarray(self.ttfts), q))

    @property
    def ttft_p50(self) -> float:
        return self.ttft_quantile(0.50)

    @property
    def ttft_p99(self) -> float:
        return self.ttft_quantile(0.99)

    def summary(self) -> dict:
        return {
            "backend": self.backend,
            "policy": self.policy,
            "sessions": self.num_sessions,
            "turns": self.turns_done,
            "tokens": self.tokens_done,
            "sim_s": self.elapsed_s,
            "ttft_p50_ms": self.ttft_p50 * 1e3,
            "ttft_p99_ms": self.ttft_p99 * 1e3,
            "tokens_per_s": self.tokens_per_s,
            "kv_hit_rate": self.kv_hit_rate,
            "kv_evictions": self.kv_evictions,
            "overload_retries": self.overload_retries,
        }


class ServingEngine:
    """Serve one session pool over one backend + KV block store."""

    def __init__(
        self,
        platform,
        backend: StorageBackend,
        store: KvBlockStore,
        pool: SessionPool,
        max_concurrent_decodes: int = 64,
        prefill_time_per_token: float = 2e-6,
        decode_time_per_token: float = 100e-6,
        overlap: Optional[bool] = None,
        overload_backoff_s: float = 50e-6,
        max_overload_retries: int = 64,
        gpu_cache: Optional[GpuCache] = None,
    ):
        if max_concurrent_decodes < 1:
            raise ConfigurationError(
                "max_concurrent_decodes must be >= 1"
            )
        if prefill_time_per_token < 0 or decode_time_per_token <= 0:
            raise ConfigurationError(
                "prefill time must be >= 0 and decode time > 0"
            )
        self.platform = platform
        self.env = platform.env
        self.backend = backend
        self.store = store
        self.pool = pool
        self.max_concurrent_decodes = max_concurrent_decodes
        self.prefill_time_per_token = prefill_time_per_token
        self.decode_time_per_token = decode_time_per_token
        #: overlap I/O with compute (the async-API advantage); defaults
        #: to the repo-wide convention: only CAM's API is asynchronous
        self.overlap = (
            backend.name == "cam" if overlap is None else overlap
        )
        self.overload_backoff_s = overload_backoff_s
        self.max_overload_retries = max_overload_retries
        #: optional GPU-memory cache tier (``None`` keeps the engine's
        #: event sequence byte-for-byte identical to the pre-cache path)
        self.gpu_cache = gpu_cache
        if (
            gpu_cache is not None
            and gpu_cache.line_bytes != store.layout.block_bytes
        ):
            raise ConfigurationError(
                f"gpu cache line ({gpu_cache.line_bytes}B) must match "
                f"the KV block ({store.layout.block_bytes}B)"
            )
        #: CAM context when the backend carries one (CamBackend does);
        #: each session gets its own device-API handle off it
        self._cam_context = getattr(backend, "context", None)
        if backend.name == "cam" and self._cam_context is None:
            raise ConfigurationError(
                "cam backend without a CamContext cannot serve"
            )
        self._slots = Resource(self.env, capacity=max_concurrent_decodes)
        self._smetrics: Optional[ServingMetrics] = None
        self._result: Optional[ServingResult] = None
        #: sessions not yet finished, and the event the run waits on
        self._sessions_left = 0
        self._done = None

    # -- the run --------------------------------------------------------
    def run(self) -> ServingResult:
        """Drive every session to completion; returns the result."""
        env = self.env
        self._smetrics = ServingMetrics.from_env(env)
        self._result = ServingResult(
            backend=self.backend.name,
            policy=self.store.policy.name,
            num_sessions=len(self.pool),
        )
        start = env.now
        self._sessions_left = len(self.pool)
        self._done = env.event()
        _Arrivals(self).reserve_at_start(start + self.pool.arrivals)
        env.run(self._done)
        self._done = None
        result = self._result
        result.elapsed_s = env.now - start
        result.kv_hits = self.store.hits
        result.kv_misses = self.store.misses
        result.kv_evictions = self.store.evictions
        return result

    # -- per-session process --------------------------------------------
    def _session(self, session: Session) -> Generator:
        """Process: one session, from its arrival to its last turn."""
        env = self.env
        smetrics = self._smetrics
        if smetrics is not None:
            smetrics.session_started()
        tracer = env.tracer
        for turn_index, turn in enumerate(session.turns):
            if turn_index:
                yield env.timeout(turn.think_s)
            arrival = env.now
            # each turn is a causal entry point: its context spans the
            # queue wait through the final durable write-back
            ctx = (
                mint_context(
                    tracer, "serving_turn",
                    session=session.session_id, turn=turn_index,
                )
                if tracer.enabled else None
            )
            queue_span = (
                ctx.begin("queue_wait") if ctx is not None else None
            )
            with self._slots.request() as slot:
                yield slot
                if queue_span is not None:
                    ctx.end(queue_span)
                queue_wait = env.now - arrival
                if smetrics is not None:
                    smetrics.decode_started(queue_wait)
                self._result.queue_waits.append(queue_wait)
                try:
                    yield from self._turn(session, turn, arrival, ctx)
                finally:
                    if ctx is not None:
                        ctx.finish(tokens=turn.decode_tokens)
                if smetrics is not None:
                    smetrics.decode_finished()
        if smetrics is not None:
            smetrics.session_finished()
        self._sessions_left -= 1
        if not self._sessions_left:
            # the run ends where a run joining every session process
            # would: two same-instant hops after the last one finishes
            # (its process-end hop, then the join's own)
            yield env.timeout(0)
            self._done.succeed()

    def _turn(self, session: Session, turn: Turn,
              arrival: float, ctx=None) -> Generator:
        env = self.env
        store = self.store
        sid = session.session_id
        api = (
            self._cam_context.device_api()
            if self._cam_context is not None
            else None
        )
        if api is not None and ctx is not None:
            # CAM batches rung by this turn join its request context
            api.trace_ctx = ctx
        # per-block backends that understand causal propagation (the
        # disaggregated tier) get the context threaded through io()
        io_kw = (
            {"trace_ctx": ctx}
            if ctx is not None
            and getattr(self.backend, "accepts_trace_ctx", False)
            else {}
        )

        # -- context load: prefetch evicted KV blocks ------------------
        hits, missing = store.acquire(sid)
        pinned = list(hits) + [block for block, _ in missing]
        store.pin(pinned)
        prefill = turn.prompt_tokens * self.prefill_time_per_token
        load_procs = []
        cache = self.gpu_cache
        plan = None
        fetch_lbas = [lba for _, lba in missing]
        if missing and cache is not None:
            # GPU-cache-resident blocks never reach the SSD path: one
            # HBM crossing instead of a prefetch; readahead candidates
            # go down the async path in a background batch so the
            # demand load never waits on speculation
            plan = cache.access_batch(
                fetch_lbas,
                granularity=store.layout.block_bytes,
                consumer=sid,
                trace_ctx=ctx,
            )
            if plan.speculative_lbas:
                env.process(self._speculate(plan))
            if plan.hit_lbas:
                hit_span = (
                    ctx.begin("cache_hit", blocks=len(plan.hit_lbas))
                    if ctx is not None else None
                )
                yield env.timeout(cache.hit_seconds(
                    len(plan.hit_lbas) * store.layout.block_bytes
                ))
                if hit_span is not None:
                    ctx.end(hit_span)
                hit_set = set(plan.hit_lbas)
                for block, lba in missing:
                    if lba in hit_set:
                        store.admit(block)
            fetch_lbas = plan.missing_lbas
        pending_load = bool(fetch_lbas)
        try:
            if fetch_lbas:
                if api is not None:
                    yield from self._ring(
                        api.prefetch,
                        np.asarray(fetch_lbas, dtype=np.int64),
                        ctx,
                    )
                else:
                    load_procs = [
                        env.process(
                            self.backend.io(
                                lba, store.layout.block_bytes,
                                is_write=False, **io_kw,
                            )
                        )
                        for lba in fetch_lbas
                    ]
                if not self.overlap:
                    # synchronous API: the load finishes before prefill
                    yield from self._wait_load(api, load_procs, ctx)
                    load_procs = []
                    pending_load = False
            if prefill:
                prefill_span = (
                    ctx.begin("prefill", tokens=turn.prompt_tokens)
                    if ctx is not None else None
                )
                yield env.timeout(prefill)
                if prefill_span is not None:
                    ctx.end(prefill_span)
            if pending_load and self.overlap:
                yield from self._wait_load(api, load_procs, ctx)
        except ReproError:
            if plan is not None:
                cache.abort_demand(plan)
            raise
        if plan is not None:
            cache.commit_demand(plan)
            hit_set = set(plan.hit_lbas)
            for block, lba in missing:
                if lba not in hit_set:
                    store.admit(block)
        else:
            for block, _ in missing:
                store.admit(block)

        # -- decode: first token, then block-sized chunks --------------
        writeback: List[tuple] = []
        write_procs: List = []
        cam_wb_pending = False
        produced = 0
        writeback.extend(store.append_tokens(sid, turn.prompt_tokens))
        first_token = True
        tokens_per_block = store.layout.tokens_per_block
        while produced < turn.decode_tokens:
            chunk = min(tokens_per_block, turn.decode_tokens - produced)
            decode_span = (
                ctx.begin("decode", tokens=chunk)
                if ctx is not None else None
            )
            if first_token:
                yield env.timeout(self.decode_time_per_token)
                ttft = env.now - arrival
                self._result.ttfts.append(ttft)
                if self._smetrics is not None:
                    self._smetrics.first_token(ttft)
                first_token = False
                if ctx is not None:
                    ctx.tracer.annotate(ctx.root, ttft=ttft)
                if chunk > 1:
                    yield env.timeout(
                        (chunk - 1) * self.decode_time_per_token
                    )
            else:
                yield env.timeout(chunk * self.decode_time_per_token)
            if decode_span is not None:
                ctx.end(decode_span)
            produced += chunk
            writeback.extend(store.append_tokens(sid, chunk))
            if writeback:
                if cache is not None:
                    # produced on the GPU: read-after-write is a hit
                    cache.fill(
                        [lba for _, lba in writeback],
                        granularity=store.layout.block_bytes,
                    )
                if api is not None:
                    # drain the previous async batch, ring the next one;
                    # both overlap with the following decode chunk
                    if cam_wb_pending:
                        wb_span = (
                            ctx.begin("writeback_wait")
                            if ctx is not None else None
                        )
                        yield from api.write_back_synchronize()
                        if wb_span is not None:
                            ctx.end(wb_span)
                    yield from self._ring(
                        api.write_back,
                        np.asarray([lba for _, lba in writeback],
                                   dtype=np.int64),
                        ctx,
                    )
                    cam_wb_pending = True
                elif self.overlap:
                    write_procs.extend(
                        env.process(
                            self.backend.io(
                                lba, store.layout.block_bytes,
                                is_write=True, **io_kw,
                            )
                        )
                        for _, lba in writeback
                    )
                else:
                    wb_span = (
                        ctx.begin("writeback_wait",
                                  blocks=len(writeback))
                        if ctx is not None else None
                    )
                    for _, lba in writeback:
                        yield from self.backend.io(
                            lba, store.layout.block_bytes,
                            is_write=True, **io_kw,
                        )
                    if wb_span is not None:
                        ctx.end(wb_span)
                writeback = []

        # -- turn end: every produced block durable on SSD -------------
        if cam_wb_pending or write_procs:
            wb_span = (
                ctx.begin("writeback_wait") if ctx is not None else None
            )
            if cam_wb_pending:
                yield from api.write_back_synchronize()
            if write_procs:
                yield env.all_of(write_procs)
            if wb_span is not None:
                ctx.end(wb_span)
        store.unpin(pinned)
        self._result.turns_done += 1
        self._result.tokens_done += turn.decode_tokens
        if self._smetrics is not None:
            self._smetrics.turn_done(turn.decode_tokens)
            self._smetrics.store_state(
                store, env.now, self._result.tokens_done
            )

    # -- plumbing -------------------------------------------------------
    def _speculate(self, plan) -> Generator:
        """Background process: fetch a plan's readahead blocks.

        Best-effort by design — a shed or storage error drops the
        speculation (charged readahead counters keep the waste visible
        to the accuracy loop) and never fails the serving turn.
        """
        cache = self.gpu_cache
        try:
            if self._cam_context is not None:
                api = self._cam_context.device_api()
                yield from api.prefetch(
                    np.asarray(plan.speculative_lbas, dtype=np.int64),
                    None,
                    self.store.layout.block_bytes,
                )
                yield from api.prefetch_synchronize()
            else:
                procs = [
                    self.env.process(
                        self.backend.io(
                            lba, self.store.layout.block_bytes,
                            is_write=False,
                        )
                    )
                    for lba in plan.speculative_lbas
                ]
                yield self.env.all_of(procs)
        except ReproError:
            cache.abort_speculative(plan)
            return
        cache.commit_speculative(plan)

    def _ring(self, initiate, lbas: np.ndarray, ctx=None) -> Generator:
        """Issue one CAM batch, re-ringing after admission sheds.

        ``initiate`` is ``api.prefetch`` or ``api.write_back``; a shed
        surfaces synchronously as :class:`OverloadError` and the engine
        backs off deterministically (linear, no RNG) before retrying —
        admission control needs no serving-specific hot-path case.
        """
        granularity = self.store.layout.block_bytes
        for attempt in range(self.max_overload_retries + 1):
            try:
                ring_span = (
                    ctx.begin("doorbell", requests=len(lbas))
                    if ctx is not None else None
                )
                try:
                    yield from initiate(lbas, None, granularity)
                finally:
                    if ring_span is not None:
                        ctx.end(ring_span)
                return
            except OverloadError:
                if attempt >= self.max_overload_retries:
                    raise
                self._result.overload_retries += 1
                if self._smetrics is not None:
                    self._smetrics.overload_retry()
                backoff_span = (
                    ctx.begin("overload_backoff", attempt=attempt)
                    if ctx is not None else None
                )
                yield self.env.timeout(
                    self.overload_backoff_s * (attempt + 1)
                )
                if backoff_span is not None:
                    ctx.end(backoff_span)

    def _wait_load(self, api, load_procs, ctx=None) -> Generator:
        load_span = (
            ctx.begin("load_wait") if ctx is not None else None
        )
        if api is not None:
            yield from api.prefetch_synchronize()
        elif load_procs:
            yield self.env.all_of(load_procs)
        if load_span is not None:
            ctx.end(load_span)

    def __repr__(self) -> str:
        return (
            f"<ServingEngine backend={self.backend.name} "
            f"sessions={len(self.pool)} overlap={self.overlap}>"
        )


class _Arrivals(ReservedTimeline):
    """The session arrivals of one run, one heap entry at a time.

    Each session arrives at ``start + arrival_s`` under the heap key an
    arrival timeout taken in session order would hold, had every
    session's process started at run start and taken its first step
    there: the keys are reserved in run start's URGENT slot (see
    :meth:`~repro.sim.core.ReservedTimeline.reserve_at_start`).  Each
    pop starts its session's process, whose first step comes at the
    same instant before anything else does, so every session runs where
    it would have.
    """

    __slots__ = ("engine",)

    def __init__(self, engine: ServingEngine):
        super().__init__(engine.env)
        self.engine = engine

    def fire(self, index: int) -> None:
        engine = self.engine
        engine.env.process(engine._session(engine.pool.session(index)))
