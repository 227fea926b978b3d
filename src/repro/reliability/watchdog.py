"""Completion watchdog: batches that never complete become typed errors.

Without it, an offline device swallows commands and the waiting process
sleeps forever — in a discrete-event simulation the run dies with
"simulation ran out of events", and on real hardware
``prefetch_synchronize`` simply hangs.  The watchdog races every guarded
completion against a deadline and fails the waiter with
:class:`~repro.errors.DeviceTimeoutError` (or
:class:`~repro.errors.DeviceOfflineError` when the injector says the
device dropped off the bus) instead.

The deadline scales with the batch's payload (``base + bytes *
per_byte``) so a legitimate multi-second 8 GiB batch is not mistaken for
a hang while a stuck 4 KiB request is caught quickly.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    DeviceOfflineError,
    DeviceTimeoutError,
)


class CompletionWatchdog:
    """Deadline supervisor for completion waits."""

    def __init__(
        self,
        env,
        timeout: float = 50e-3,
        per_byte: float = 1e-8,  # 1 s per 100 MB of payload, generous
    ):
        if timeout <= 0:
            raise ConfigurationError("watchdog timeout must be positive")
        if per_byte < 0:
            raise ConfigurationError("per_byte must be >= 0")
        self.env = env
        self.timeout = timeout
        self.per_byte = per_byte
        self.timeouts_fired = 0

    def deadline(self, nbytes: int = 0) -> float:
        """Seconds allowed for a completion moving ``nbytes``."""
        return self.timeout + nbytes * self.per_byte

    def guard(
        self,
        event,
        *,
        nbytes: int = 0,
        ssd_ids: Iterable[int] = (),
        fault_injector=None,
        description: str = "completion",
        parent_span=None,
    ) -> Generator:
        """Process: wait for ``event`` up to the deadline.

        Returns ``event``'s value on success and re-raises its failure.
        On deadline expiry raises :class:`DeviceOfflineError` when any of
        ``ssd_ids`` is offline per ``fault_injector``, else
        :class:`DeviceTimeoutError`.
        """
        deadline = self.deadline(nbytes)
        timer = self.env.timeout(deadline)
        try:
            yield self.env.any_of([event, timer])
        finally:
            if event.processed and timer.callbacks is not None:
                # the event won (a failure raises here): the timer still
                # pops at its key, but its one callback, the race's
                # check, is a no-op now that would pin the race, the
                # waiter and its value until then
                timer.callbacks.clear()
        if event.processed:
            if event.ok:
                return event.value
            event._defused = True
            raise event.value
        self.timeouts_fired += 1
        error = self.classify(
            ssd_ids=ssd_ids,
            fault_injector=fault_injector,
            deadline=deadline,
            description=description,
        )
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "watchdog_timeout",
                parent=parent_span,
                deadline=deadline,
                offline=isinstance(error, DeviceOfflineError),
            )
        raise error

    def classify(
        self,
        *,
        ssd_ids: Iterable[int] = (),
        fault_injector=None,
        deadline: Optional[float] = None,
        description: str = "completion",
    ) -> DeviceTimeoutError:
        """Build the typed error for an expired deadline."""
        deadline = self.timeout if deadline is None else deadline
        offline = self._offline_among(ssd_ids, fault_injector)
        if offline:
            return DeviceOfflineError(
                f"{description}: SSD {offline[0]} offline; no completion "
                f"within {deadline * 1e3:.1f} ms",
                ssd_id=offline[0],
                timeout=deadline,
            )
        ids = list(ssd_ids)
        return DeviceTimeoutError(
            f"{description}: no completion within "
            f"{deadline * 1e3:.1f} ms",
            ssd_id=ids[0] if ids else None,
            timeout=deadline,
        )

    @staticmethod
    def _offline_among(
        ssd_ids: Iterable[int], fault_injector
    ) -> Tuple[int, ...]:
        if fault_injector is None:
            return ()
        return tuple(
            ssd_id
            for ssd_id in ssd_ids
            if fault_injector.is_offline(ssd_id)
        )
