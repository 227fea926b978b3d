"""The start-everything-at-once oracle for the serving engine.

:class:`StartAllServingEngine` is a :class:`~repro.serving.ServingEngine`
whose run starts every session's process at run start, each parked on
a ``Timeout`` of its arrival, and joins them all with one ``AllOf``.
The engine's own run starts each session at its arrival from one
reserved-key record; it replays this oracle's simulated timeline (TTFTs
and queue waits in order, turns, tokens, KV counters and the final
clock) on fewer heap events:
``tests/test_serving_arrivals.py`` holds it to :func:`event_delta`.
"""

from __future__ import annotations

from typing import Generator

from repro.obs.causal import mint_context
from repro.serving import ServingEngine, ServingResult, Session
from repro.serving.metrics import ServingMetrics


def event_delta(num_sessions: int) -> int:
    """The engine's heap events minus the oracle's for one run.

    The oracle pops, per session, its process start at run start, its
    arrival timeout and its process-end hop, then the ``AllOf`` once.
    The engine pops its arrival record's start slot once, then per
    session the arrival and the process start, then the last session's
    end hop and the run's end event.
    """
    oracle = 3 * num_sessions + 1
    engine = 1 + 2 * num_sessions + 2
    return engine - oracle


class StartAllServingEngine(ServingEngine):
    """A serving engine that starts every session process at run start."""

    def run(self) -> ServingResult:
        env = self.env
        self._smetrics = ServingMetrics.from_env(env)
        self._result = ServingResult(
            backend=self.backend.name,
            policy=self.store.policy.name,
            num_sessions=len(self.pool),
        )
        start = env.now
        procs = [
            env.process(self._session_from_start(session))
            for session in self.pool.sessions()
        ]
        env.run(env.all_of(procs))
        result = self._result
        result.elapsed_s = env.now - start
        result.kv_hits = self.store.hits
        result.kv_misses = self.store.misses
        result.kv_evictions = self.store.evictions
        return result

    def _session_from_start(self, session: Session) -> Generator:
        env = self.env
        yield env.timeout(session.arrival_s)
        smetrics = self._smetrics
        if smetrics is not None:
            smetrics.session_started()
        tracer = env.tracer
        for turn_index, turn in enumerate(session.turns):
            if turn_index:
                yield env.timeout(turn.think_s)
            arrival = env.now
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
