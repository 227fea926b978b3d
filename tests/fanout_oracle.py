"""The per-request fan-out oracle for CAM batches.

:class:`FanOutManager` is a :class:`~repro.core.control.CamManager`
that submits each polled batch the simple way: one handler process per
batch and one process per request through
:meth:`~repro.spdk.driver.SpdkDriver.io`, with or without a reliability
bundle.  It replays the simulated timeline of the manager's coalesced
walks — batch outcomes, every device latency and its completion order,
the reliability counters and the final clock — on more heap events.
``tests/test_coalesced_differential.py`` and
``tests/test_reliable_coalesced_differential.py`` hold the walks to it.
"""

from __future__ import annotations

from typing import Generator

from repro.core.control import BatchRequest, CamManager
from repro.errors import DeviceError


class FanOutManager(CamManager):
    """A CAM manager that fans every batch out, one process per request."""

    def _start(self, batch: BatchRequest) -> None:
        self.env.process(self._handle_batch(batch))

    def _handle_batch(self, batch: BatchRequest) -> Generator:
        try:
            failures = yield from self._process_batch(batch)
        finally:
            self._release(batch)
        self._complete(batch, failures)

    def _process_batch(self, batch: BatchRequest) -> Generator:
        """Submit a batch one process per request, slice by admission
        slice, and wait for every CQE."""
        count = batch.request_count
        step = self._slice_limit() or count
        failures = []
        for start in range(0, count, step):
            stop = min(start + step, count)
            results = yield from self._fan_out(batch, start, stop)
            failures.extend(self._failures(batch, results))
        return failures

    def _fan_out(
        self, batch: BatchRequest, start: int, stop: int
    ) -> Generator:
        """One process per request of one slice."""
        indexes = range(start, stop)
        children = [
            self.env.process(self._request(batch, index, payload))
            for index, payload in zip(
                indexes, self._payloads(batch, start, stop)
            )
        ]
        done = yield self.env.all_of(children)
        return [
            (index, done[child]) for index, child in zip(indexes, children)
        ]

    def _request(self, batch: BatchRequest, index: int, payload) -> Generator:
        """One fan-out request; typed device errors (watchdog timeouts)
        become return values so a single bad request cannot kill the
        whole batch process tree."""
        try:
            cqe = yield from self.driver.io(
                int(batch.lbas[index]),
                batch.granularity,
                is_write=batch.is_write,
                payload=payload,
                target=batch.dest,
                target_offset=index * batch.granularity,
                parent_span=batch.trace_span,
            )
        except DeviceError as error:
            return error
        return cqe
