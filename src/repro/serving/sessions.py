"""Session pool and arrival model for the serving workload.

A :class:`SessionPool` pre-generates every session of a run from one
seeded :class:`numpy.random.Generator`, so a serving simulation is a
pure function of ``(SessionConfig, platform)`` — the property every
bit-identity differential in this repo leans on.

Each :class:`Session` is a conversation: an arrival time (exponential
inter-arrivals, i.e. a Poisson open-loop arrival process), a prompt
context length, and one or more :class:`Turn`\\ s.  A turn is
*think time* (the user reading/typing; the session's KV blocks are
eviction candidates the whole time), a short follow-up prompt, and a
decode length.  Lengths are drawn uniformly from closed ranges — wide
enough to spread sessions across KV-block counts, narrow enough that
quick-mode runs stay comparable across backends.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Turn:
    """One request/response exchange within a session."""

    #: seconds the user spends before sending this turn (0 for the first)
    think_s: float
    #: prompt tokens appended this turn (the full context on turn 0)
    prompt_tokens: int
    #: response tokens to decode
    decode_tokens: int


@dataclass(frozen=True)
class Session:
    session_id: int
    #: simulated seconds after run start when the session arrives
    arrival_s: float
    turns: Tuple[Turn, ...]

    @property
    def total_decode_tokens(self) -> int:
        return sum(turn.decode_tokens for turn in self.turns)


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of the arrival model (all draws are seed-deterministic)."""

    num_sessions: int = 100
    seed: int = 17
    #: session arrivals per simulated second (Poisson process); the
    #: default spreads the population over ~20 ms of simulated time
    arrival_rate: float = 5000.0
    #: mean think time between turns (exponential)
    mean_think_s: float = 2e-3
    turns_min: int = 1
    turns_max: int = 3
    context_min_tokens: int = 256
    context_max_tokens: int = 1024
    prompt_min_tokens: int = 16
    prompt_max_tokens: int = 64
    decode_min_tokens: int = 16
    decode_max_tokens: int = 64

    def __post_init__(self):
        if self.num_sessions < 1:
            raise ConfigurationError("num_sessions must be >= 1")
        if self.arrival_rate <= 0 or self.mean_think_s < 0:
            raise ConfigurationError(
                "arrival_rate must be > 0 and mean_think_s >= 0"
            )
        for lo, hi, what in (
            (self.turns_min, self.turns_max, "turns"),
            (self.context_min_tokens, self.context_max_tokens, "context"),
            (self.prompt_min_tokens, self.prompt_max_tokens, "prompt"),
            (self.decode_min_tokens, self.decode_max_tokens, "decode"),
        ):
            if not 1 <= lo <= hi:
                raise ConfigurationError(
                    f"{what} range [{lo}, {hi}] must satisfy 1 <= min <= max"
                )


class SessionPool:
    """Deterministically pre-generated sessions for one serving run.

    The draws are stored packed: arrival times as one float64 array,
    turns as flat arrays indexed through per-session offsets, under 100
    bytes per session where :class:`Session` and :class:`Turn` objects
    take about 1.3 KB.  :meth:`session` builds one session's objects on
    demand, equal to those a list of objects would have held.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        #: arrival of each session, seconds after run start
        self.arrivals = np.cumsum(
            rng.exponential(
                1.0 / config.arrival_rate, size=config.num_sessions
            )
        )
        #: session i owns turns ``first_turn[i]:first_turn[i + 1]``
        self._first_turn = array("q", [0])
        self._think = array("d")
        self._prompt = array("q")
        self._decode = array("q")
        for _ in range(config.num_sessions):
            num_turns = int(
                rng.integers(config.turns_min, config.turns_max + 1)
            )
            for turn_index in range(num_turns):
                self._think.append(
                    0.0 if turn_index == 0
                    else float(rng.exponential(config.mean_think_s))
                )
                self._prompt.append(int(
                    rng.integers(
                        config.context_min_tokens,
                        config.context_max_tokens + 1,
                    )
                    if turn_index == 0
                    else rng.integers(
                        config.prompt_min_tokens,
                        config.prompt_max_tokens + 1,
                    )
                ))
                self._decode.append(int(
                    rng.integers(
                        config.decode_min_tokens,
                        config.decode_max_tokens + 1,
                    )
                ))
            self._first_turn.append(len(self._think))

    def session(self, session_id: int) -> Session:
        """Session ``session_id``, built from the packed draws."""
        if not 0 <= session_id < len(self):
            raise IndexError(f"no session {session_id} in {self!r}")
        first = self._first_turn[session_id]
        last = self._first_turn[session_id + 1]
        return Session(
            session_id,
            float(self.arrivals[session_id]),
            tuple(map(
                Turn, self._think[first:last], self._prompt[first:last],
                self._decode[first:last],
            )),
        )

    def sessions(self) -> List[Session]:
        return [self.session(i) for i in range(len(self))]

    @property
    def total_turns(self) -> int:
        return len(self._think)

    @property
    def total_decode_tokens(self) -> int:
        return sum(self._decode)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __repr__(self) -> str:
        return (
            f"<SessionPool {len(self)} sessions, "
            f"{self.total_turns} turns, seed={self.config.seed}>"
        )
