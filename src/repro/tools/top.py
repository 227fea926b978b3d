"""cam-top: a per-reactor / per-SSD console view of a telemetry run.

Renders the :class:`~repro.obs.sampler.MetricsSampler`'s in-memory time
series as the familiar ``top``-style tables — one row per reactor
(busy fraction, requests, owned SSDs, state) and one per SSD (queue
occupancy, in-flight commands, health) plus a headline line (sim time,
batches, goodput, retries/shed).  Works from a finished run's sampler,
or replays the history sample-by-sample with ``--follow`` to watch the
run unfold.

The demo mode drives a fig08-scale workload (8 SSDs, doorbell batches
of 8192 x 4 KiB reads) through :class:`~repro.core.control.CamManager`
with the full telemetry stack attached::

    PYTHONPATH=src python -m repro.tools.top --demo
    PYTHONPATH=src python -m repro.tools.top --demo --follow
    PYTHONPATH=src python -m repro.tools.top --demo \
        --openmetrics metrics.txt --json metrics.json
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Dict, List, Optional, Tuple

_LABELED = re.compile(r"^(?P<name>[^{]+)\{(?P<labels>[^}]*)\}$")


def _split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """``"name{a=1,b=2}"`` -> ``("name", {"a": "1", "b": "2"})``."""
    match = _LABELED.match(key)
    if not match:
        return key, {}
    labels = {}
    body = match.group("labels")
    if body:
        for pair in body.split(","):
            label, _, value = pair.partition("=")
            labels[label] = value
    return match.group("name"), labels


def _by_label(
    snapshot: Dict[str, object], metric: str, label: str
) -> Dict[str, float]:
    """All series of ``metric`` keyed by one label's value."""
    out: Dict[str, float] = {}
    for key, value in snapshot.items():
        name, labels = _split_key(key)
        if name == metric and label in labels:
            out[labels[label]] = float(value)
    return out


def _scalar(
    snapshot: Dict[str, object], key: str, default: float = 0.0
) -> float:
    value = snapshot.get(key)
    return default if value is None else float(value)


def _sum_metric(snapshot: Dict[str, object], metric: str) -> float:
    total = 0.0
    for key, value in snapshot.items():
        name, _ = _split_key(key)
        if name == metric:
            total += float(value)
    return total


_HEALTH_NAMES = {0: "healthy", 1: "degraded", 2: "tripped", 3: "offline"}


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_sample(
    sample: Tuple[float, Dict[str, object]],
    previous: Optional[Tuple[float, Dict[str, object]]] = None,
    ssds_by_reactor: Optional[Dict[str, int]] = None,
) -> str:
    """Render one history sample as the cam-top screen.

    ``previous`` (an earlier sample) adds rate columns — goodput and
    per-reactor request rate over the inter-sample window.
    """
    now, snap = sample
    lines: List[str] = []

    batches = _sum_metric(snap, "cam_batches_total")
    requests = _sum_metric(snap, "cam_requests_total")
    total_bytes = _sum_metric(snap, "cam_bytes_total")
    goodput = ""
    if previous is not None:
        t0, prev = previous
        if now > t0:
            rate = (
                total_bytes - _sum_metric(prev, "cam_bytes_total")
            ) / (now - t0)
            goodput = f"  goodput {rate / 1e9:7.2f} GB/s"
    retries = _scalar(snap, "reliability_retries_total")
    shed = _scalar(snap, "admission_shed_total")
    dropped = _scalar(snap, "tracer_dropped_spans")
    lines.append(
        f"cam-top  t={now * 1e3:9.4f} ms  batches {batches:6.0f}  "
        f"requests {requests:9.0f}  bytes {total_bytes / 1e6:9.1f} MB"
        f"{goodput}"
    )
    extras = []
    if retries:
        extras.append(f"retries {retries:.0f}")
    if shed:
        extras.append(f"shed {shed:.0f}")
    if _scalar(snap, "watchdog_timeouts_total"):
        extras.append(
            f"watchdog {_scalar(snap, 'watchdog_timeouts_total'):.0f}"
        )
    if _scalar(snap, "breaker_trips_total"):
        extras.append(
            f"breaker trips {_scalar(snap, 'breaker_trips_total'):.0f}"
        )
    if dropped:
        extras.append(f"dropped spans {dropped:.0f}")
    if extras:
        lines.append("  " + "  ".join(extras))

    busy = _by_label(snap, "reactor_busy_fraction", "reactor")
    crashed = _by_label(snap, "reactor_crashed", "reactor")
    reactor_reqs = _by_label(snap, "reactor_requests_total", "reactor")
    if busy:
        lines.append("")
        lines.append(
            f"  {'REACTOR':>7}  {'BUSY':>6}  {'':20}  "
            f"{'REQUESTS':>10}  {'SSDS':>4}  STATE"
        )
        prev_reqs = (
            _by_label(previous[1], "reactor_requests_total", "reactor")
            if previous is not None
            else {}
        )
        for rid in sorted(busy, key=lambda r: (len(r), r)):
            fraction = busy[rid]
            state = "offline" if crashed.get(rid) else "online"
            owned = (
                str(ssds_by_reactor.get(rid, ""))
                if ssds_by_reactor
                else "-"
            )
            reqs = reactor_reqs.get(rid, 0.0)
            rate = ""
            if previous is not None and rid in prev_reqs and (
                sample[0] > previous[0]
            ):
                per_sec = (reqs - prev_reqs[rid]) / (
                    sample[0] - previous[0]
                )
                rate = f" ({per_sec / 1e3:7.1f} kreq/s)"
            lines.append(
                f"  {rid:>7}  {fraction:6.1%}  {_bar(fraction)}  "
                f"{reqs:10.0f}  {owned:>4}  {state}{rate}"
            )

    sq = _by_label(snap, "ssd_sq_occupancy", "ssd")
    if sq:
        cq = _by_label(snap, "ssd_cq_occupancy", "ssd")
        inflight = _by_label(snap, "ssd_inflight_commands", "ssd")
        health = _by_label(snap, "ssd_health_state", "ssd")
        lines.append("")
        lines.append(
            f"  {'SSD':>5}  {'SQ':>5}  {'CQ':>5}  {'INFLIGHT':>8}  HEALTH"
        )
        for sid in sorted(sq, key=lambda s: (len(s), s)):
            state = _HEALTH_NAMES.get(int(health.get(sid, 0)), "?")
            lines.append(
                f"  {sid:>5}  {sq[sid]:5.0f}  {cq.get(sid, 0):5.0f}  "
                f"{inflight.get(sid, 0):8.0f}  {state}"
            )

    # serving pane: present only when a ServingEngine run registered
    # its families (see repro.serving.metrics)
    if "serving_active_sessions" in snap:
        active = _scalar(snap, "serving_active_sessions")
        decoding = _scalar(snap, "serving_decoding_sessions")
        turns = _scalar(snap, "serving_turns_total")
        ttft_p99 = _scalar(snap, "serving_ttft_seconds:p99")
        hit_rate = _scalar(snap, "serving_kv_hit_rate")
        resident = _scalar(snap, "serving_kv_resident_blocks")
        tokens = _scalar(snap, "serving_tokens_total")
        rate = _scalar(snap, "serving_tokens_per_second")
        if previous is not None and now > previous[0]:
            # live window rate beats the run-cumulative gauge
            rate = (
                tokens - _scalar(previous[1], "serving_tokens_total")
            ) / (now - previous[0])
        lines.append("")
        lines.append(
            f"  SERVING  sessions {active:5.0f} ({decoding:.0f} "
            f"decoding)  turns {turns:6.0f}  "
            f"ttft p99 {ttft_p99 * 1e3:8.3f} ms"
        )
        lines.append(
            f"           tokens/s {rate:10.0f}  kv hit "
            f"{hit_rate:6.1%}  resident blocks {resident:6.0f}"
        )

    # gpu-cache pane: present only when a GpuCache published its
    # families (see repro.cache.gpucache)
    if "cam_gpucache_hits_total" in snap:
        g_hits = _scalar(snap, "cam_gpucache_hits_total")
        g_misses = _scalar(snap, "cam_gpucache_misses_total")
        g_rate = _scalar(snap, "cam_gpucache_hit_rate")
        g_lines = _scalar(snap, "cam_gpucache_resident_lines")
        g_evict = _scalar(snap, "cam_gpucache_evictions_total")
        ra_issued = _scalar(snap, "cam_gpucache_readahead_issued_total")
        ra_used = _scalar(snap, "cam_gpucache_readahead_used_total")
        ra_acc = _scalar(snap, "cam_gpucache_readahead_accuracy")
        throttled = _scalar(snap, "cam_gpucache_throttled_streams")
        lines.append("")
        lines.append(
            f"  GPUCACHE hit {g_rate:6.1%} ({g_hits:.0f}/"
            f"{g_hits + g_misses:.0f})  lines {g_lines:6.0f}  "
            f"evictions {g_evict:6.0f}"
        )
        lines.append(
            f"           readahead {ra_used:.0f}/{ra_issued:.0f} used "
            f"(accuracy {ra_acc:6.1%})  throttled streams "
            f"{throttled:.0f}"
        )

    # trace pane: present only when causal tracing is on (the sampler
    # publishes trace_* gauges whenever env.tracer is enabled)
    if "trace_active_contexts" in snap:
        active_ctx = _scalar(snap, "trace_active_contexts")
        done_ctx = _scalar(snap, "trace_completed_requests")
        exemplars = _scalar(snap, "trace_exemplar_count")
        dropped_spans = _scalar(snap, "tracer_dropped_spans")
        lines.append("")
        lines.append(
            f"  TRACE    active contexts {active_ctx:5.0f}  "
            f"completed {done_ctx:7.0f}  dropped spans "
            f"{dropped_spans:6.0f}  exemplars {exemplars:4.0f}"
        )

    # net pane: present only when the disaggregated tier published its
    # cam_net_* families (see repro.net)
    link_transfers = _by_label(snap, "cam_net_transfers_total", "link")
    if link_transfers:
        link_bytes = _by_label(snap, "cam_net_bytes_total", "link")
        link_retrans = _by_label(snap, "cam_net_retransmits_total", "link")
        link_drops = _by_label(snap, "cam_net_drops_total", "link")
        link_down = _by_label(snap, "cam_net_link_down", "link")
        lines.append("")
        lines.append(
            f"  {'NET LINK':>9}  {'MSGS':>8}  {'MB':>8}  "
            f"{'RETRANS':>7}  {'DROPS':>6}  STATE"
        )
        for link in sorted(link_transfers, key=lambda l: (len(l), l)):
            state = "DOWN" if link_down.get(link) else "up"
            lines.append(
                f"  {link:>9}  {link_transfers[link]:8.0f}  "
                f"{link_bytes.get(link, 0) / 1e6:8.1f}  "
                f"{link_retrans.get(link, 0):7.0f}  "
                f"{link_drops.get(link, 0):6.0f}  {state}"
            )
        hedged = _scalar(snap, "cam_net_hedged_reads_total")
        wins = _scalar(snap, "cam_net_hedge_wins_total")
        timeouts = _scalar(snap, "cam_net_remote_timeouts_total")
        if "cam_net_tier_hits_total" in snap:
            t_hits = _scalar(snap, "cam_net_tier_hits_total")
            t_misses = _scalar(snap, "cam_net_tier_misses_total")
            lookups = t_hits + t_misses
            mode = (
                "DEGRADED"
                if _scalar(snap, "cam_net_tier_degraded")
                else "normal"
            )
            lines.append(
                f"  TIER {mode:>8}  hit "
                f"{(t_hits / lookups) if lookups else 0.0:6.1%}  dirty "
                f"{_scalar(snap, 'cam_net_tier_dirty_pages'):5.0f}  "
                f"queued {_scalar(snap, 'cam_net_tier_queued_writes_total'):5.0f}  "
                f"resyncs {_scalar(snap, 'cam_net_tier_resyncs_total'):3.0f}"
            )
        lines.append(
            f"  REMOTE hedged {hedged:.0f} (wins {wins:.0f})  "
            f"timeouts {timeouts:.0f}  degraded writes "
            f"{_scalar(snap, 'cam_net_degraded_writes_total'):.0f}"
        )
    return "\n".join(lines)


def _average_busy(history) -> Dict[str, float]:
    """Window-weighted mean busy fraction per reactor over the whole
    retained history (== total busy seconds / total sampled seconds)."""
    busy_seconds: Dict[str, float] = {}
    total = 0.0
    prev_time = None
    for time, snap in history:
        if prev_time is None:
            prev_time = time
            continue
        window = time - prev_time
        prev_time = time
        if window <= 0:
            continue
        total += window
        for rid, fraction in _by_label(
            snap, "reactor_busy_fraction", "reactor"
        ).items():
            busy_seconds[rid] = (
                busy_seconds.get(rid, 0.0) + fraction * window
            )
    if total <= 0:
        return {}
    return {rid: value / total for rid, value in busy_seconds.items()}


def render_top(sampler, manager=None) -> str:
    """Render the final state of a sampler's history (one screen).

    Counters and queue occupancy come from the latest sample; the busy
    column shows each reactor's *run-average* fraction (the last
    sample's instantaneous window is usually the idle tail after the
    final completion, which would always read 0%).
    """
    if not sampler.history:
        return "cam-top: no samples recorded"
    latest = sampler.history[-1]
    average = _average_busy(sampler.history)
    if average:
        time, snap = latest
        snap = dict(snap)
        for rid, fraction in average.items():
            snap[f"reactor_busy_fraction{{reactor={rid}}}"] = fraction
        latest = (time, snap)
    previous = sampler.history[0] if len(sampler.history) > 1 else None
    ssds_by_reactor = None
    if manager is not None:
        pool = manager.driver.pool
        ssds_by_reactor = {
            str(reactor.reactor_id): pool.ssds_on_reactor(
                reactor.reactor_id
            )
            for reactor in pool.reactors
        }
    return render_sample(
        latest, previous=previous, ssds_by_reactor=ssds_by_reactor
    )


def follow(sampler, manager=None, every: int = 1, stream=None) -> int:
    """Replay the history, printing one screen per ``every`` samples."""
    stream = stream or sys.stdout
    samples = list(sampler.history)
    screens = 0
    previous = None
    for index, sample in enumerate(samples):
        if index % every == 0 or index == len(samples) - 1:
            print(
                render_sample(sample, previous=previous), file=stream
            )
            print("-" * 72, file=stream)
            screens += 1
        previous = sample
    return screens


# -- demo workload ----------------------------------------------------

def run_demo(
    num_ssds: int = 8,
    batches: int = 6,
    requests: int = 8192,
    granularity: int = 4096,
    interval: float = 50e-6,
    reliability: bool = True,
):
    """Fig08-scale batched reads with the full telemetry stack attached.

    Returns ``(manager, metrics, sampler)`` after the run finished.
    """
    import numpy as np

    from repro.config import PlatformConfig
    from repro.core.control import BatchRequest, CamManager
    from repro.hw.platform import Platform
    from repro.obs import MetricsSampler, install_metrics

    platform = Platform(
        PlatformConfig(num_ssds=num_ssds), functional=False
    )
    env = platform.env
    metrics = install_metrics(env)
    bundle = None
    if reliability:
        from repro.reliability import Reliability

        bundle = Reliability(platform)
    manager = CamManager(platform, reliability=bundle)
    sampler = MetricsSampler(metrics, interval=interval, manager=manager)
    for index in range(batches):
        lbas = (
            np.arange(requests, dtype=np.int64) * 3 + index
        ) % (1 << 20)
        env.run(
            manager.ring(
                BatchRequest(
                    lbas=lbas, granularity=granularity, is_write=False
                )
            )
        )
    sampler.stop()
    sampler.sample_now()  # final state after the last completion
    return manager, metrics, sampler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cam-top: live per-reactor/per-SSD telemetry view"
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="run the fig08-scale instrumented demo workload",
    )
    parser.add_argument("--num-ssds", type=int, default=8)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--requests", type=int, default=8192)
    parser.add_argument(
        "--no-reliability", action="store_true",
        help="demo without the reliability bundle",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="replay the whole history instead of the final screen",
    )
    parser.add_argument(
        "--every", type=int, default=8,
        help="with --follow, one screen per N samples (default 8)",
    )
    parser.add_argument(
        "--openmetrics", metavar="PATH",
        help="also export the OpenMetrics text exposition",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also export the JSON metrics snapshot",
    )
    args = parser.parse_args(argv)

    if not args.demo:
        parser.error(
            "only --demo mode is available from the command line; "
            "library callers pass their own sampler to render_top()"
        )

    manager, metrics, sampler = run_demo(
        num_ssds=args.num_ssds,
        batches=args.batches,
        requests=args.requests,
        reliability=not args.no_reliability,
    )
    if args.follow:
        follow(sampler, manager=manager, every=max(1, args.every))
    print(render_top(sampler, manager=manager))
    if args.openmetrics:
        from repro.obs.metrics_export import export_openmetrics

        lines = export_openmetrics(metrics.registry, args.openmetrics)
        print(f"\nwrote {lines} OpenMetrics samples to {args.openmetrics}")
    if args.json:
        from repro.obs.metrics_export import export_metrics_json

        export_metrics_json(metrics.registry, args.json)
        print(f"wrote JSON snapshot to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
