"""Out-of-core tiled GEMM (paper Section IV-E, Figs. 10b / 10c).

"Since three huge matrices cannot fit into GPU memory entirely, we need
to divide these matrices into smaller blocks": C = A @ B is computed tile
by tile — for every C tile, stream the matching A-row-panel and
B-column-panel tiles from the SSDs, multiply-accumulate on the GPU, and
write the finished C tile back.

I/O per C tile: ``k/tile`` pairs of (tile x tile) float32 tiles read, one
tile written.  Compute per C tile: ``2 * tile^2 * k`` FLOPs at tensor
rate.  CAM overlaps the next panel's reads with the current multiply;
BaM and GDS serialize (BaM's I/O occupies the SMs; GDS's request path is
the bottleneck either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.backends.base import StorageBackend, make_backend
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.units import KiB
from repro.workloads.pipelines import PipelineReport, run_two_stage_pipeline
from repro.workloads.vdisk import VirtualDisk

_OVERLAPPING = {"cam", "spdk"}

#: fraction of A100 tensor peak a tiled fp32 GEMM sustains
_GEMM_EFFICIENCY = 0.35


@dataclass
class GemmResult:
    """Outcome of one out-of-core GEMM."""

    m: int
    n: int
    k: int
    tile: int
    total_time: float
    report: PipelineReport
    bytes_moved: int
    flops: float
    verified: bool


class OutOfCoreGemm:
    """C = A @ B with all three matrices resident on the SSD array."""

    def __init__(
        self,
        platform: Platform,
        backend: StorageBackend,
        m: int,
        n: int,
        k: int,
        tile: int,
        granularity: int = 128 * KiB,
        overlap: Optional[bool] = None,
    ):
        for name, dim in (("m", m), ("n", n), ("k", k)):
            if dim <= 0 or dim % tile:
                raise ConfigurationError(
                    f"{name}={dim} must be a positive multiple of tile={tile}"
                )
        self.platform = platform
        self.backend = backend
        self.m, self.n, self.k, self.tile = m, n, k, tile
        self.granularity = granularity
        self.overlap = (
            backend.name in _OVERLAPPING if overlap is None else overlap
        )
        platform.stripe_blocks = max(
            1, granularity // platform.config.ssd.block_size
        )
        self.vdisk = VirtualDisk(platform)
        self._a: Optional[np.ndarray] = None
        self._b: Optional[np.ndarray] = None
        # disk layout: A | B | C, each tile-major contiguous
        self._a_off = 0
        self._b_off = m * k * 4
        self._c_off = self._b_off + k * n * 4

    # -- staging --------------------------------------------------------
    def stage(self, a: np.ndarray, b: np.ndarray) -> None:
        """Place A (m x k) and B (k x n) on the SSDs, tile-major."""
        a = np.ascontiguousarray(a, dtype=np.float32)
        b = np.ascontiguousarray(b, dtype=np.float32)
        if a.shape != (self.m, self.k) or b.shape != (self.k, self.n):
            raise ConfigurationError(
                f"expected A {(self.m, self.k)} and B {(self.k, self.n)}, "
                f"got {a.shape} and {b.shape}"
            )
        self._a, self._b = a, b
        self.vdisk.write_array(self._a_off, self._tile_major(a))
        self.vdisk.write_array(self._b_off, self._tile_major(b))

    def _tile_major(self, matrix: np.ndarray) -> np.ndarray:
        """Reorder a matrix so each (tile x tile) block is contiguous."""
        t = self.tile
        rows, cols = matrix.shape
        blocked = matrix.reshape(rows // t, t, cols // t, t)
        return np.ascontiguousarray(blocked.transpose(0, 2, 1, 3)).reshape(-1)

    def _tile_offset(self, base: int, row_tiles: int, i: int, j: int) -> int:
        tile_bytes = self.tile * self.tile * 4
        return base + (i * row_tiles + j) * tile_bytes

    def _read_tile(self, base: int, cols_in_tiles: int, i: int, j: int
                   ) -> np.ndarray:
        offset = self._tile_offset(base, cols_in_tiles, i, j)
        flat = self.vdisk.read_array(offset, self.tile * self.tile,
                                     np.float32)
        return flat.reshape(self.tile, self.tile)

    # -- the computation ------------------------------------------------------
    def run(self, verify: bool = True) -> GemmResult:
        if self._a is None:
            raise ConfigurationError("stage() matrices first")
        env = self.platform.env
        t = self.tile
        mt, nt, kt = self.m // t, self.n // t, self.k // t
        tile_bytes = t * t * 4
        panel_read_bytes = 2 * kt * tile_bytes  # A panel + B panel per C tile
        tile_flops = 2.0 * t * t * self.k
        gpu = self.platform.gpu
        compute_time = tile_flops / (
            gpu.config.tensor_flops * _GEMM_EFFICIENCY
        ) + kt * gpu.config.kernel_launch_overhead

        c_tiles = [(i, j) for i in range(mt) for j in range(nt)]
        start = env.now

        def io_stage(index: int) -> Generator:
            yield from self.backend.bulk_io(
                panel_read_bytes, self.granularity, is_write=False
            )

        def compute_stage(index: int) -> Generator:
            i, j = c_tiles[index]
            acc = np.zeros((t, t), dtype=np.float32)
            for p in range(kt):
                a_tile = self._read_tile(self._a_off, kt, i, p)
                b_tile = self._read_tile(self._b_off, nt, p, j)
                acc += a_tile @ b_tile
            yield env.timeout(compute_time)
            self.vdisk.write_array(
                self._tile_offset(self._c_off, nt, i, j), acc.reshape(-1)
            )
            yield from self.backend.bulk_io(
                tile_bytes, self.granularity, is_write=True
            )

        report = run_two_stage_pipeline(
            env, len(c_tiles), io_stage, compute_stage, overlap=self.overlap
        )

        verified = True
        if verify:
            got = np.vstack(
                [
                    np.hstack(
                        [self._read_tile(self._c_off, nt, i, j)
                         for j in range(nt)]
                    )
                    for i in range(mt)
                ]
            )
            expected = self._a @ self._b
            verified = bool(
                np.allclose(got, expected, rtol=1e-4, atol=1e-4)
            )

        return GemmResult(
            m=self.m,
            n=self.n,
            k=self.k,
            tile=t,
            total_time=env.now - start,
            report=report,
            bytes_moved=len(c_tiles) * (panel_read_bytes + tile_bytes),
            flops=2.0 * self.m * self.n * self.k,
            verified=verified,
        )


def gemm_with_backend(
    backend_name: str,
    m: int = 512,
    n: int = 512,
    k: int = 512,
    tile: int = 128,
    granularity: int = 64 * KiB,
    num_ssds: int = 12,
    seed: int = 29,
    verify: bool = True,
    **backend_kwargs,
) -> GemmResult:
    """Convenience: build platform, stage random matrices, multiply."""
    from repro.config import PlatformConfig

    platform = Platform(PlatformConfig(num_ssds=num_ssds))
    backend = make_backend(backend_name, platform, **backend_kwargs)
    gemm = OutOfCoreGemm(
        platform, backend, m, n, k, tile, granularity=granularity
    )
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    gemm.stage(a, b)
    return gemm.run(verify=verify)
