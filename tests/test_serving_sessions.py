"""SessionPool: seed determinism and arrival-model bounds."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import Session, SessionConfig, SessionPool, Turn


def test_same_seed_same_pool():
    a = SessionPool(SessionConfig(num_sessions=50, seed=3))
    b = SessionPool(SessionConfig(num_sessions=50, seed=3))
    assert a.sessions() == b.sessions()


def test_different_seed_differs():
    a = SessionPool(SessionConfig(num_sessions=50, seed=3))
    b = SessionPool(SessionConfig(num_sessions=50, seed=4))
    assert a.sessions() != b.sessions()


def test_draws_respect_configured_bounds():
    config = SessionConfig(
        num_sessions=200, seed=11, turns_min=2, turns_max=4,
        context_min_tokens=100, context_max_tokens=200,
        prompt_min_tokens=5, prompt_max_tokens=9,
        decode_min_tokens=3, decode_max_tokens=7,
    )
    pool = SessionPool(config)
    assert len(pool) == 200
    previous_arrival = 0.0
    for session in pool.sessions():
        assert session.arrival_s >= previous_arrival
        previous_arrival = session.arrival_s
        assert 2 <= len(session.turns) <= 4
        first, *rest = session.turns
        assert first.think_s == 0.0
        assert 100 <= first.prompt_tokens <= 200
        for turn in rest:
            assert turn.think_s >= 0.0
            assert 5 <= turn.prompt_tokens <= 9
        for turn in session.turns:
            assert 3 <= turn.decode_tokens <= 7
    assert pool.total_turns == sum(
        len(s.turns) for s in pool.sessions()
    )
    assert pool.total_decode_tokens == sum(
        s.total_decode_tokens for s in pool.sessions()
    )


def _object_sessions(config):
    """The pool drawn straight into objects: the same RNG calls in the
    same order, one :class:`Session` and its :class:`Turn` objects per
    session."""
    rng = np.random.default_rng(config.seed)
    arrivals = np.cumsum(
        rng.exponential(1.0 / config.arrival_rate, size=config.num_sessions)
    )
    sessions = []
    for session_id in range(config.num_sessions):
        turns = []
        for turn_index in range(
            int(rng.integers(config.turns_min, config.turns_max + 1))
        ):
            think = (
                0.0 if turn_index == 0
                else float(rng.exponential(config.mean_think_s))
            )
            prompt = int(
                rng.integers(config.context_min_tokens,
                             config.context_max_tokens + 1)
                if turn_index == 0
                else rng.integers(config.prompt_min_tokens,
                                  config.prompt_max_tokens + 1)
            )
            decode = int(rng.integers(config.decode_min_tokens,
                                      config.decode_max_tokens + 1))
            turns.append(Turn(think, prompt, decode))
        sessions.append(
            Session(session_id, float(arrivals[session_id]), tuple(turns))
        )
    return sessions


@pytest.mark.parametrize("seed, mean_think_s", [(17, 20e-3), (5, 0.0)])
def test_packed_pool_builds_the_objects_it_drew(seed, mean_think_s):
    config = SessionConfig(num_sessions=300, seed=seed,
                           mean_think_s=mean_think_s, turns_max=4)
    pool = SessionPool(config)
    expected = _object_sessions(config)
    assert pool.sessions() == expected
    assert len(pool) == len(expected)
    assert pool.total_turns == sum(len(s.turns) for s in expected)
    assert pool.total_decode_tokens == sum(
        s.total_decode_tokens for s in expected
    )
    for session_id in (-1, len(pool)):
        with pytest.raises(IndexError):
            pool.session(session_id)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_sessions": 0},
        {"arrival_rate": 0.0},
        {"mean_think_s": -1.0},
        {"turns_min": 0},
        {"turns_min": 3, "turns_max": 2},
        {"decode_min_tokens": 0},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        SessionConfig(**kwargs)
