"""The paper's per-batch core signal against the tuner it replaced.

``CamContext(autotune=True)`` feeds each batch's compute and I/O times
to its manager's one :class:`~repro.core.elastic.ElasticController`.
``tests/autotune_oracle.py`` holds the open-loop ``CoreAutotuner`` the
device API fed before, with its own core count.  The same prefetch loop
runs both ways and must make the same decisions at the same instants:
the core count at every synchronize, every remap and its instant, the
final clock and the heap events.

A hand resize is applied to both sides: to the oracle as its users had
to, by resizing the manager and setting the tuner's count, since the
tuner otherwise kept deciding from its own stale copy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.core import CamContext
from repro.hw.platform import Platform
from tests import autotune_oracle

#: simulated compute per iteration: none, below, near and far above a
#: batch's I/O time, so the loop shrinks, holds and grows
COMPUTE_TIMES = (0.0, 10e-6, 100e-6, 1e-3, 5e-3)


def _run(scenario, oracle):
    num_ssds = scenario["num_ssds"]
    platform = Platform(PlatformConfig(num_ssds=num_ssds), functional=False)
    num_cores = scenario["num_cores"]
    if num_cores is not None:
        num_cores = 1 + (num_cores - 1) % -(-num_ssds // 2)
    if oracle:
        context, tuner = autotune_oracle.tuned_context(platform, num_cores)
        api = autotune_oracle.TunedDeviceAPI(context, tuner)
    else:
        context = CamContext(platform, num_cores=num_cores)
        api = context.device_api()
    manager = context.manager
    driver = manager.driver
    env = platform.env
    remaps = []
    remap = driver.remap

    def logged_remap(count=None):
        remaps.append((env.now, count))
        remap(count)

    driver.remap = logged_remap
    requests = scenario["requests"]
    rng = np.random.default_rng(scenario["seed"])
    lbas = rng.integers(0, 1 << 16, size=requests).astype(np.int64)
    written = rng.integers(0, 1 << 16, size=requests).astype(np.int64)
    buffer = context.alloc(requests * 4096)
    source = context.alloc(requests * 4096)
    resize = scenario["resize"]
    cores = []

    def kernel():
        for index, compute_time in enumerate(scenario["compute"]):
            if resize is not None and resize[0] == index:
                count = 1 + (resize[1] - 1) % driver.num_reactors
                manager.set_active_reactors(count)
                if oracle:
                    tuner.cores = count
            yield from api.prefetch(lbas, buffer, 4096)
            if scenario["write_back"]:
                yield from api.write_back(written, source, 4096)
            if compute_time:
                yield env.timeout(compute_time)
            yield from api.prefetch_synchronize()
            cores.append(manager.active_reactors)
            if scenario["write_back"]:
                yield from api.write_back_synchronize()

    env.run(env.process(kernel()))
    return cores, remaps, env.now, env.events_processed


_scenario = st.fixed_dictionaries({
    "num_ssds": st.integers(1, 16),
    # None: the default ceil(N/2) reactors; k: 1 + (k - 1) % ceil(N/2)
    "num_cores": st.one_of(st.none(), st.integers(1, 8)),
    "compute": st.lists(
        st.sampled_from(COMPUTE_TIMES), min_size=1, max_size=12
    ),
    "requests": st.integers(1, 512),
    "seed": st.integers(0, 2 ** 16),
    "write_back": st.booleans(),
    # (before which iteration, count): count wraps into the pool
    "resize": st.one_of(
        st.none(), st.tuples(st.integers(0, 11), st.integers(1, 8))
    ),
})


def _assert_matches_oracle(scenario):
    observed = _run(scenario, oracle=False)
    assert observed == _run(scenario, oracle=True)
    return observed


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_batch_signal_matches_the_tuner_oracle(scenario):
    _assert_matches_oracle(scenario)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
def test_batch_signal_matches_the_tuner_oracle_deep(scenario):
    _assert_matches_oracle(scenario)


def test_oracle_sees_shrinks_grows_holds_and_a_hand_resize():
    """Pin that the drawn loops reach what the differential covers."""
    scenario = {
        "num_ssds": 12, "num_cores": None, "requests": 512, "seed": 3,
        "write_back": True, "resize": (4, 2),
        "compute": [5e-3, 5e-3, 5e-3, 5e-3, 0.0, 0.0, 1e-3, 0.0],
    }
    cores, remaps, _, _ = _assert_matches_oracle(scenario)
    assert cores[:4] == [5, 4, 3, 3]  # shrinks to N/4, then holds there
    assert remaps[3][1] == 2  # the hand resize
    assert max(cores[4:]) > 2  # grows back under I/O
