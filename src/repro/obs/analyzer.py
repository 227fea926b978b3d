"""Trace analysis: per-layer breakdowns and per-reactor timelines.

:class:`TraceAnalyzer` consumes completed spans (from a live
:class:`~repro.obs.tracer.Tracer` or from a CSV re-import) and answers
the questions the paper's figures ask:

* *Where does a request's time go?* — :meth:`seconds_by_name`,
  :meth:`layer_seconds` / :meth:`layer_fractions` (Fig. 3).
* *How busy is each management core?* — :meth:`reactor_busy_seconds`,
  :meth:`reactor_utilization`, :meth:`reactor_timeline` (Fig. 12).
* *What does one request cost the CPU?* — :meth:`per_request_cpu_cost`
  (Fig. 13), fed by the ``instructions``/``cycles`` tags the reactors
  and kernel stacks attach to their spans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span


class TraceAnalyzer:
    """Aggregate statistics computed directly from spans."""

    def __init__(self, source):
        """``source`` is a tracer (anything with ``.spans()``) or an
        iterable of :class:`~repro.obs.tracer.Span`."""
        if hasattr(source, "spans"):
            spans: Iterable[Span] = source.spans()
        else:
            spans = source
        self.spans: List[Span] = [s for s in spans if s.closed]
        #: spans the source tracer evicted from its ring buffer; nonzero
        #: means every aggregate below undercounts (partial trace)
        self.dropped_spans: int = int(
            getattr(source, "dropped_spans", 0) or 0
        )
        self._children: Optional[Dict[Optional[int], List[Span]]] = None

    @property
    def complete(self) -> bool:
        """False when ring-buffer eviction lost spans before analysis."""
        return self.dropped_spans == 0

    def summary(self) -> Dict[str, object]:
        """One-look trace health + headline aggregates."""
        t0, t1 = self.window()
        return {
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "orphan_spans": len(self.orphan_spans()),
            "complete": self.complete,
            "window_seconds": t1 - t0,
            "seconds_by_name": self.seconds_by_name(),
            "count_by_name": self.count_by_name(),
        }

    def orphan_spans(self) -> List[Span]:
        """Spans whose parent is missing from the trace.

        Ring-buffer eviction drops the *oldest* spans first, so a
        long-lived parent (a ``batch``, a ``request`` root) can be
        evicted while its children survive.  Such children carry a
        dangling ``parent_id``; treating them as roots silently
        mis-shapes every tree-walking aggregate, so they are detected
        and counted here instead.
        """
        ids = {span.span_id for span in self.spans}
        return [
            span
            for span in self.spans
            if span.parent_id is not None and span.parent_id not in ids
        ]

    # -- indexing -------------------------------------------------------
    def _child_index(self) -> Dict[Optional[int], List[Span]]:
        if self._children is None:
            index: Dict[Optional[int], List[Span]] = {}
            for span in self.spans:
                index.setdefault(span.parent_id, []).append(span)
            self._children = index
        return self._children

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span`` present in the trace."""
        return list(self._child_index().get(span.span_id, ()))

    def descendants(self, span: Span) -> List[Span]:
        """All spans transitively parented under ``span``."""
        index = self._child_index()
        out: List[Span] = []
        frontier = list(index.get(span.span_id, ()))
        while frontier:
            child = frontier.pop()
            out.append(child)
            frontier.extend(index.get(child.span_id, ()))
        return out

    def window(self) -> Tuple[float, float]:
        """(earliest begin, latest end) over the whole trace."""
        if not self.spans:
            return (0.0, 0.0)
        return (
            min(s.begin for s in self.spans),
            max(s.end for s in self.spans),
        )

    # -- by-name aggregates --------------------------------------------
    def seconds_by_name(self) -> Dict[str, float]:
        """Total span-seconds per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def count_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    # -- kernel-layer breakdown (Fig. 3) -------------------------------
    def layer_seconds(
        self, layers: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """CPU seconds per kernel layer, from spans tagged ``layer=...``.

        ``layers`` seeds the result with zeros so callers get a stable
        key set even when a layer never appears.
        """
        totals: Dict[str, float] = {
            layer: 0.0 for layer in (layers or ())
        }
        for span in self.spans:
            layer = span.tags.get("layer")
            if layer is None:
                continue
            totals[layer] = totals.get(layer, 0.0) + span.duration
        return totals

    def layer_fractions(
        self, layers: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Each layer's share of the total layered CPU time."""
        seconds = self.layer_seconds(layers)
        total = sum(seconds.values())
        if not total:
            return {layer: 0.0 for layer in seconds}
        return {layer: value / total for layer, value in seconds.items()}

    def kernel_overhead_fraction(self) -> float:
        """file-system + io_map share — the paper's > 34 % claim."""
        fractions = self.layer_fractions()
        return fractions.get("filesystem", 0.0) + fractions.get("iomap", 0.0)

    # -- batches --------------------------------------------------------
    def batch_spans(self) -> List[Span]:
        return [s for s in self.spans if s.name == "batch"]

    def batch_latency_total(self) -> float:
        """Sum of batch durations == what ``LatencyStat`` totals."""
        return sum(s.duration for s in self.batch_spans())

    # -- reactors (Fig. 12) --------------------------------------------
    def _reactor_spans(self) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.name == "submit" and "reactor" in s.tags
        ]

    def reactor_busy_seconds(self) -> Dict[int, float]:
        """Busy (submission + CQ-poll) seconds per reactor."""
        busy: Dict[int, float] = {}
        for span in self._reactor_spans():
            reactor = int(span.tags["reactor"])
            busy[reactor] = busy.get(reactor, 0.0) + span.duration
        return busy

    def reactor_utilization(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[int, float]:
        """Busy fraction per reactor over [start, end] (default: the
        trace window)."""
        t0, t1 = self.window()
        start = t0 if start is None else start
        end = t1 if end is None else end
        span = end - start
        if span <= 0:
            return {r: 0.0 for r in self.reactor_busy_seconds()}
        return {
            reactor: busy / span
            for reactor, busy in self.reactor_busy_seconds().items()
        }

    def reactor_timeline(
        self, bucket_seconds: float
    ) -> Dict[int, List[Tuple[float, float]]]:
        """Per-reactor utilization timeline.

        Returns ``reactor -> [(bucket_start, busy_fraction), ...]`` with
        every bucket of the trace window present (zeros included), so
        the timeline plots directly.
        """
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        t0, t1 = self.window()
        if t1 <= t0:
            return {}
        buckets = max(1, int((t1 - t0) / bucket_seconds) + 1)
        reactors = sorted(
            {int(s.tags["reactor"]) for s in self._reactor_spans()}
        )
        busy = {r: [0.0] * buckets for r in reactors}
        for span in self._reactor_spans():
            reactor = int(span.tags["reactor"])
            lo, hi = span.begin, span.end
            first = int((lo - t0) / bucket_seconds)
            last = int((hi - t0) / bucket_seconds)
            for b in range(first, min(last, buckets - 1) + 1):
                b_lo = t0 + b * bucket_seconds
                b_hi = b_lo + bucket_seconds
                busy[reactor][b] += max(
                    0.0, min(hi, b_hi) - max(lo, b_lo)
                )
            # zero-duration spans contribute nothing, by construction
        return {
            reactor: [
                (t0 + b * bucket_seconds, values[b] / bucket_seconds)
                for b in range(buckets)
            ]
            for reactor, values in busy.items()
        }

    # -- CPU cost (Fig. 13) --------------------------------------------
    def per_request_cpu_cost(self) -> Tuple[float, float]:
        """(instructions, cycles) per request, from cost-tagged spans.

        Reactors tag each request's ``submit`` span and the kernel
        stacks tag each request's ``completion_signal`` span with the
        ``instructions``/``cycles`` they charged, so the span trace is
        the single source of truth for Fig. 13.
        """
        instructions = cycles = 0.0
        requests = 0
        for span in self.spans:
            if "instructions" not in span.tags:
                continue
            instructions += float(span.tags["instructions"])
            cycles += float(span.tags.get("cycles", 0.0))
            requests += 1
        if not requests:
            return (0.0, 0.0)
        return (instructions / requests, cycles / requests)
