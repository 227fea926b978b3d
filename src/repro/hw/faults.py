"""Fault injection and per-device health episodes for the SSD model.

Real deployments see media errors; a control plane that cannot surface
them corrupts data silently.  :class:`FaultInjector` lets tests and
ablations plant failures and the device answers with a non-zero CQE
status instead of data.  Each control plane then propagates the error
its own way (POSIX raises like a failed ``pread``; CAM fails the batch's
completion event so ``prefetch_synchronize`` raises).

Fault classes (ISSUE 2):

* **transient** — a planted ``(ssd, lba)`` fails exactly one command,
  then clears (a marginal read that succeeds on retry);
* **persistent** — the block fails every command until
  :meth:`FaultInjector.repair_lba` (real media damage; only a replica
  or a rewrite helps);
* **probabilistic** — background error rate *per block*: a command
  covering ``n`` blocks fails with probability ``1 - (1 - p)^n``, so a
  128 KiB command is proportionally more exposed than a 512 B one;
* **latency degradation** — a device episode multiplying media time
  (a drive doing internal GC or thermal throttling);
* **offline** — the device stops answering entirely: commands are
  accepted and never complete.  Only a completion watchdog
  (:mod:`repro.reliability`) turns that into an error.

Reactor-scoped faults (ISSUE 4) target the control plane itself rather
than a device: a **stall** wedges one polling core for a window of
simulated time, and a **crash** kills it outright.  The injector only
records the plan; :class:`~repro.spdk.driver.SpdkDriver` schedules the
episodes against its reactors at construction, and a
:class:`~repro.spdk.reactor.ReactorSupervisor` (opt-in) turns detection
into failover.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: NVMe-ish status codes used by the model
STATUS_OK = 0
STATUS_MEDIA_ERROR = 0x281  # unrecovered read error
STATUS_WRITE_FAULT = 0x280


class FaultInjector:
    """Plants device-level failures and health episodes."""

    def __init__(self, error_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= error_rate <= 1.0:
            raise ConfigurationError(
                f"error_rate must be in [0, 1], got {error_rate}"
            )
        #: probability that one *block* of a command faults
        self.error_rate = error_rate
        self._rng = np.random.default_rng(seed)
        self._one_shot: Set[Tuple[int, int]] = set()
        self._persistent: Set[Tuple[int, int]] = set()
        self._offline: Set[int] = set()
        #: ssd_id -> list of (start, end, factor) latency episodes
        self._episodes: Dict[int, List[Tuple[float, float, float]]] = {}
        self.faults_delivered = 0
        #: commands swallowed because the device was offline
        self.offline_drops = 0
        #: planned (reactor_id, start, duration) stall episodes
        self._reactor_stalls: List[Tuple[int, float, float]] = []
        #: planned (reactor_id, at) hard crashes
        self._reactor_crashes: List[Tuple[int, float]] = []
        #: reactor-scoped episodes actually delivered by a driver
        self.reactor_faults_delivered = 0

    # -- planting -------------------------------------------------------
    def inject_lba(
        self, ssd_id: int, lba: int, persistent: bool = False
    ) -> None:
        """Fail commands touching ``lba`` on SSD ``ssd_id``.

        Transient (default) faults clear after one delivery; persistent
        faults stay until :meth:`repair_lba`.
        """
        if persistent:
            self._persistent.add((ssd_id, lba))
        else:
            self._one_shot.add((ssd_id, lba))

    def repair_lba(self, ssd_id: int, lba: int) -> None:
        """Clear any fault planted on ``(ssd_id, lba)``."""
        self._one_shot.discard((ssd_id, lba))
        self._persistent.discard((ssd_id, lba))

    # -- device offline state -------------------------------------------
    def set_offline(self, ssd_id: int, offline: bool = True) -> None:
        """Drop (or restore) a whole device off the bus."""
        if offline:
            self._offline.add(ssd_id)
        else:
            self._offline.discard(ssd_id)

    def is_offline(self, ssd_id: int) -> bool:
        return ssd_id in self._offline

    # -- reactor-scoped faults ------------------------------------------
    def stall_reactor(
        self, reactor_id: int, start: float, duration: float
    ) -> None:
        """Wedge reactor ``reactor_id`` for ``[start, start + duration)``.

        Queued work waits out the stall (or fails over, if a supervisor
        notices first).
        """
        if duration <= 0:
            raise ConfigurationError(
                f"stall duration must be positive, got {duration}"
            )
        self._reactor_stalls.append((reactor_id, start, duration))

    def crash_reactor(self, reactor_id: int, at: float = 0.0) -> None:
        """Kill reactor ``reactor_id`` at simulated time ``at``."""
        self._reactor_crashes.append((reactor_id, at))

    def has_reactor_faults(self) -> bool:
        return bool(self._reactor_stalls or self._reactor_crashes)

    @property
    def reactor_stalls(self) -> List[Tuple[int, float, float]]:
        return list(self._reactor_stalls)

    @property
    def reactor_crashes(self) -> List[Tuple[int, float]]:
        return list(self._reactor_crashes)

    # -- latency degradation episodes -----------------------------------
    def degrade(
        self,
        ssd_id: int,
        factor: float,
        start: float = 0.0,
        duration: float = float("inf"),
    ) -> None:
        """Multiply SSD ``ssd_id``'s media time by ``factor`` during
        ``[start, start + duration)`` of simulated time."""
        if factor < 1.0:
            raise ConfigurationError(
                f"degradation factor must be >= 1, got {factor}"
            )
        self._episodes.setdefault(ssd_id, []).append(
            (start, start + duration, factor)
        )

    def latency_factor(self, ssd_id: int, now: float) -> float:
        """Combined media-latency multiplier active at time ``now``."""
        factor = 1.0
        for start, end, episode_factor in self._episodes.get(ssd_id, ()):
            if start <= now < end:
                factor *= episode_factor
        return factor

    # -- the device-side check ------------------------------------------
    @staticmethod
    def _find_planted(
        planted: Set[Tuple[int, int]], ssd_id: int, lba: int,
        num_blocks: int,
    ) -> Optional[Tuple[int, int]]:
        """First planted block a command [lba, lba+n) hits, or ``None``.

        Scans whichever side is smaller — the command's block range or
        the planted set — so a 128 KiB command (256 blocks) against a
        handful of planted faults costs O(pending), not O(blocks).
        """
        if not planted:
            return None
        if num_blocks <= len(planted):
            for block in range(lba, lba + num_blocks):
                key = (ssd_id, block)
                if key in planted:
                    return key
            return None
        hits = [
            key
            for key in planted
            if key[0] == ssd_id and lba <= key[1] < lba + num_blocks
        ]
        return min(hits) if hits else None

    def check(self, ssd_id: int, lba: int, num_blocks: int,
              is_write: bool) -> int:
        """Status for a command covering [lba, lba+num_blocks)."""
        status = STATUS_WRITE_FAULT if is_write else STATUS_MEDIA_ERROR
        hit = self._find_planted(self._one_shot, ssd_id, lba, num_blocks)
        if hit is not None:
            self._one_shot.discard(hit)
            self.faults_delivered += 1
            return status
        if self._find_planted(
            self._persistent, ssd_id, lba, num_blocks
        ) is not None:
            self.faults_delivered += 1
            return status
        if self.error_rate:
            # per-block exposure: a command touching n blocks faults if
            # any block faults — 1 - (1 - p)^n
            p_command = 1.0 - (1.0 - self.error_rate) ** max(1, num_blocks)
            if self._rng.random() < p_command:
                self.faults_delivered += 1
                return status
        return STATUS_OK

    @property
    def pending_one_shot(self) -> int:
        return len(self._one_shot)
