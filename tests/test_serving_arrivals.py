"""Serving memory follows the sessions in flight.

The engine starts each session at its arrival from one reserved-key
record instead of starting every session's process at run start.  It
must replay the start-everything oracle (``tests/serving_oracle.py``)
to the last bit on fewer heap events, and its heap must stay small.
The packed KV block map is held to a dict reference.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.backends.base import make_backend
from repro.cache import GpuCache
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.obs import install_tracer
from repro.serving import (
    KvBlockStore,
    KvLayout,
    ServingEngine,
    SessionConfig,
    SessionPool,
)
from tests.serving_oracle import StartAllServingEngine, event_delta


def _serve(engine_cls, backend="cam", sessions=30, mean_think_s=5e-3,
           gpu_cache_blocks=0, traced=False, seed=17):
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    env = platform.env
    if traced:
        install_tracer(env)
    layout = KvLayout()
    store = KvBlockStore(platform, layout, capacity_blocks=48)
    pool = SessionPool(SessionConfig(
        num_sessions=sessions, seed=seed, mean_think_s=mean_think_s,
        turns_min=1, turns_max=3,
    ))
    gpu_cache = (
        GpuCache(
            platform,
            capacity_bytes=gpu_cache_blocks * layout.block_bytes,
            line_bytes=layout.block_bytes,
        )
        if gpu_cache_blocks else None
    )
    engine = engine_cls(
        platform, make_backend(backend, platform), store, pool,
        max_concurrent_decodes=8, gpu_cache=gpu_cache,
    )
    return env, engine


def _observed(env, result):
    return {
        "ttfts": list(result.ttfts),
        "queue_waits": list(result.queue_waits),
        "turns": result.turns_done,
        "tokens": result.tokens_done,
        "elapsed": result.elapsed_s,
        "kv": (result.kv_hits, result.kv_misses, result.kv_evictions),
        "now": env.now,
        # a NumPy scalar on the clock equals a float but leaks into
        # every timestamp taken from it
        "clock_type": type(env.now),
    }


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    sessions=st.integers(1, 60),
    mean_think_s=st.sampled_from([0.0, 1e-3, 5e-3]),
    backend=st.sampled_from(["cam", "bam"]),
    gpu_cache_blocks=st.sampled_from([0, 16]),
    traced=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_engine_replays_the_start_everything_oracle(
    sessions, mean_think_s, backend, gpu_cache_blocks, traced, seed
):
    runs = []
    for engine_cls in (StartAllServingEngine, ServingEngine):
        env, engine = _serve(
            engine_cls, backend, sessions, mean_think_s,
            gpu_cache_blocks, traced, seed,
        )
        runs.append((_observed(env, engine.run()), env.events_processed))
    (oracle, oracle_events), (change, change_events) = runs
    assert change == oracle
    assert change["turns"] == engine.pool.total_turns
    assert change_events - oracle_events == event_delta(sessions)


def _heap_high_water(engine_cls, sessions):
    """The most entries the event heap held during one serving run."""
    env, engine = _serve(engine_cls, sessions=sessions, mean_think_s=0.0)
    high_water = 0

    def run(until):
        nonlocal high_water
        while until.callbacks is not None:
            high_water = max(high_water, len(env._heap))
            env.step()
        return until.value

    env.run = run
    result = engine.run()
    assert result.turns_done == engine.pool.total_turns
    return high_water


def test_heap_holds_the_sessions_in_flight_not_every_session():
    """The start-everything run holds every arrival on the heap from
    run start; the engine holds only the sessions in flight."""
    sessions = 2000
    assert _heap_high_water(StartAllServingEngine, sessions) >= sessions
    assert _heap_high_water(ServingEngine, sessions) < sessions // 10


# -- the packed KV block map ------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 5),
                  st.integers(0, 40)),
        st.tuples(st.just("acquire"), st.integers(0, 5)),
        st.tuples(st.just("admit"), st.integers(-1, 6),
                  st.integers(-1, 3), st.integers(-2, 12)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, num_ssds=st.integers(1, 5), num_layers=st.integers(1, 3))
def test_packed_block_map_matches_a_dict(ops, num_ssds, num_layers):
    """Blocks take global slots layer-major per append, a block's LBA is
    its slot times the stripe, and an unallocated block has no LBA."""
    platform = Platform(PlatformConfig(num_ssds=num_ssds),
                        functional=False)
    layout = KvLayout(num_layers=num_layers, block_bytes=8192,
                      kv_bytes_per_token=1024)
    store = KvBlockStore(platform, layout, capacity_blocks=4)
    stripe = store.stripe_blocks
    lbas, tokens, per_ssd = {}, {}, [0] * num_ssds
    for op in ops:
        if op[0] == "append":
            _, session, count = op
            before = layout.blocks_per_layer(tokens.get(session, 0))
            tokens[session] = tokens.get(session, 0) + count
            after = layout.blocks_per_layer(tokens[session])
            expected = []
            for layer in range(num_layers):
                for index in range(before, after):
                    slot = len(lbas)
                    lbas[(session, layer, index)] = slot * stripe
                    per_ssd[slot % num_ssds] += 1
                    expected.append(((session, layer, index), slot * stripe))
            assert store.append_tokens(session, count) == expected
        elif op[0] == "acquire":
            _, missing = store.acquire(op[1])
            assert all(lbas[block] == lba for block, lba in missing)
        else:
            block = op[1:]
            if block in lbas:
                store.admit(block)
                assert store.is_resident(block)
            else:
                with pytest.raises(ConfigurationError):
                    store.admit(block)
                with pytest.raises(KeyError):
                    store.lba_of(block)
    assert {block: store.lba_of(block) for block in lbas} == lbas
    assert store.allocated_blocks == len(lbas)
    assert store.blocks_per_ssd == per_ssd
