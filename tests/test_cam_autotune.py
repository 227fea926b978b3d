"""Tests for CAM's dynamic core adjustment (Challenge 1): the paper's
per-batch signal, fed by an autotuning ``CamContext`` to its manager's
one :class:`~repro.core.elastic.ElasticController`."""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core import CamContext, ElasticController, ElasticCorePolicy
from repro.core.elastic import BATCH_HIGH_WATER, BATCH_LOW_WATER
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.obs import install_metrics, install_sampler
from repro.units import KiB


def _context(num_ssds=12, **kwargs):
    platform = Platform(PlatformConfig(num_ssds=num_ssds), functional=False)
    return CamContext(platform, **kwargs)


def test_bounds_follow_paper_n4_to_n2():
    assert _context(12).controller.bounds == (3, 6)
    assert _context(8).controller.bounds == (2, 4)
    assert _context(1).controller.bounds == (1, 1)


def test_starts_at_maximum():
    context = _context(12)
    assert context.manager.active_reactors == 6
    assert context.controller.bounds[1] == 6


def test_shrinks_when_compute_dominates():
    context = _context(12)
    for _ in range(10):
        context.controller.observe(compute_time=1.0, io_time=0.2)
    assert context.manager.active_reactors == context.controller.bounds[0]


def test_grows_when_io_dominates():
    context = _context(12)
    controller = context.controller
    for _ in range(10):
        controller.observe(compute_time=1.0, io_time=0.2)
    assert context.manager.active_reactors == 3
    for _ in range(10):
        controller.observe(compute_time=0.2, io_time=1.0)
    assert context.manager.active_reactors == controller.bounds[1]


def test_balanced_batches_hold_steady():
    context = _context(12)
    context.manager.set_active_reactors(4)
    for _ in range(5):
        decision = context.controller.observe(compute_time=1.0, io_time=0.95)
        assert decision.action == "hold"
    assert context.manager.active_reactors == 4
    # a zero total carries no signal: a hold too
    assert context.controller.observe(0.0, 0.0).reason == "no signal"


def test_negative_times_rejected():
    context = _context(12)
    for times in ((-1.0, 0.5), (1.0, -0.5)):
        with pytest.raises(ConfigurationError):
            context.controller.observe(*times)
    assert context.controller.ticks == 0


def test_invalid_ssd_count_rejected():
    with pytest.raises(ConfigurationError):
        ElasticCorePolicy(
            num_ssds=0, low_water=BATCH_LOW_WATER,
            high_water=BATCH_HIGH_WATER, cooldown=0.0,
        )


def test_history_recorded():
    context = _context(8)
    context.controller.observe(1.0, 0.5)
    context.controller.observe(1.0, 2.0)
    decisions = context.controller.decisions
    assert len(decisions) == 2
    assert decisions[0][1].pressure == 0.5 / 1.5
    assert [d.action for _, d in decisions] == ["shrink", "grow"]


def test_history_is_bounded():
    """Regression: a long-lived controller must not grow its decision
    log without limit — only the newest ``max_decisions`` survive."""
    platform = Platform(PlatformConfig(num_ssds=8), functional=False)
    context = CamContext(platform, autotune=False)
    controller = ElasticController(
        None, manager=context.manager, max_decisions=16
    )
    for index in range(100):
        controller.observe(float(index), 0.5)
    assert len(controller.decisions) == 16
    assert controller.decisions[0][1].pressure == 0.5 / 84.5
    assert controller.decisions[-1][1].pressure == 0.5 / 99.5
    # the context's own controller has the default cap, and nonsense
    # caps are rejected
    assert _context(8).controller.decisions.maxlen == 4096
    with pytest.raises(ConfigurationError):
        ElasticController(
            None, manager=_context(8, autotune=False).manager,
            max_decisions=0,
        )


def test_end_to_end_autotune_shrinks_under_compute_heavy_loop():
    """Compute-heavy pipeline iterations shed manager cores live."""
    context = _context(12)
    platform = context.platform
    buffer = context.alloc(64 * KiB)
    api = context.device_api()
    env = platform.env
    lbas = np.arange(4, dtype=np.int64) * 8

    def kernel():
        for _ in range(8):
            yield from api.prefetch(lbas, buffer, 4096)
            yield env.timeout(5e-3)  # long compute: I/O fully hidden
            yield from api.prefetch_synchronize()

    env.run(env.process(kernel()))
    assert context.manager.active_reactors == context.controller.bounds[0]
    assert context.controller.bounds[0] == 3


def test_end_to_end_autotune_recovers_under_io_heavy_loop():
    context = _context(12)
    # a hand resize: the controller reads the manager's real count
    context.manager.set_active_reactors(3)
    buffer = context.alloc(8 << 20)
    api = context.device_api()
    env = context.platform.env
    lbas = np.arange(2048, dtype=np.int64) * 8

    def kernel():
        for _ in range(6):
            yield from api.prefetch(lbas, buffer, 4096)
            # near-zero compute: I/O is the critical path
            yield from api.prefetch_synchronize()

    env.run(env.process(kernel()))
    assert context.manager.active_reactors > 3
    assert context.controller.grows > 0


def test_a_second_loop_on_one_manager_is_rejected():
    """A sampler-driven controller on an autotuning context fails when
    built instead of fighting the per-batch loop: each resize one made
    the other could undo at the next synchronize."""
    context = _context(12)
    sampler = install_sampler(
        install_metrics(context.env), manager=context.manager,
        interval=50e-6,
    )
    with pytest.raises(ConfigurationError, match="core-sizing loop"):
        ElasticController(
            sampler, manager=context.manager,
            policy=ElasticCorePolicy(num_ssds=12, cooldown=200e-6),
        )
    assert context.manager.controller is context.controller
    # with the context's loop off, the sampler controller is the one
    quiet = _context(12, autotune=False)
    controller = ElasticController(
        install_sampler(
            install_metrics(quiet.env), manager=quiet.manager,
            interval=50e-6,
        ),
        manager=quiet.manager,
    )
    assert quiet.controller is None
    assert quiet.manager.controller is controller
    # a stopped loop releases its manager and resizes nothing more
    controller.stop()
    assert quiet.manager.controller is None
    successor = ElasticController(
        None, manager=quiet.manager,
        policy=ElasticCorePolicy(num_ssds=12, cooldown=0.0),
    )
    assert quiet.manager.controller is successor
    held = controller.observe(1.0, 0.0)
    assert (held.action, held.reason) == ("hold", "stopped")
    assert quiet.manager.active_reactors == 6
    assert successor.observe(1.0, 0.0).action == "shrink"
    assert quiet.manager.active_reactors == 5
    # the same holds for the context's own per-batch loop
    context.controller.stop()
    ElasticController(sampler, manager=context.manager, autostart=False)
    assert context.controller.observe(1.0, 0.0).reason == "stopped"
