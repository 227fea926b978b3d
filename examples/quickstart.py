"""Quickstart: the CAM API end to end on a simulated 12-SSD testbed.

Mirrors the paper's Fig. 7 programming example:

* host side — ``CAM_init`` (CamContext), ``CAM_alloc`` / ``CAM_free``;
* device side — fill an LBA array, ``prefetch`` into pinned GPU memory,
  ``prefetch_synchronize``, compute, ``write_back`` the result.

Everything is functional: the bytes that land in the GPU buffer are the
bytes staged on the SSDs, and the written-back result is durable.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Platform
from repro.core import CamContext
from repro.units import KiB, pretty_time
from repro.workloads.vdisk import VirtualDisk


def main() -> None:
    # --- the testbed: A100 + 12 x P5510 (paper Table III) ----------------
    platform = Platform()  # functional: SSDs store real bytes
    env = platform.env
    vdisk = VirtualDisk(platform)

    # stage a recognizable dataset on the SSDs: 256 records of 4 KiB
    granularity = 4 * KiB
    num_records = 256
    records = np.arange(num_records * granularity, dtype=np.uint32) % 251
    vdisk.write_array(0, records.astype(np.uint8))

    # --- CAM_init + CAM_alloc ----------------------------------------
    context = CamContext(platform)
    read_buffer = context.alloc(num_records * granularity)
    api = context.device_api()

    # the "GPU kernel": prefetch all records, compute, write back
    blocks_per_record = granularity // platform.config.ssd.block_size
    lbas = np.arange(num_records, dtype=np.int64) * blocks_per_record

    def kernel():
        # 1) initiate the batched read (leading thread rings the doorbell)
        yield from api.prefetch(lbas, read_buffer, granularity)
        # 2) ... the GPU would compute on the *previous* batch here ...
        # 3) wait until the CPU manager reports every block landed
        yield from api.prefetch_synchronize()

        data = read_buffer.view(np.uint8)
        expected = records.astype(np.uint8)
        assert np.array_equal(data[: len(expected)], expected), (
            "prefetched bytes differ from what was staged!"
        )
        print(f"[{pretty_time(env.now)}] prefetched "
              f"{num_records} x {granularity}B, data verified")

        # negate every byte on the "GPU" and persist the result
        read_buffer.write_bytes(0, 255 - data)
        yield from api.write_back(lbas, read_buffer, granularity)
        yield from api.write_back_synchronize()
        print(f"[{pretty_time(env.now)}] write-back durable")

    env.run(env.process(kernel()))

    # verify durability through the functional disk
    on_disk = vdisk.read_direct(0, num_records * granularity)
    assert np.array_equal(on_disk, 255 - records.astype(np.uint8))
    print("on-disk contents verified after write_back")

    stats = context.manager
    print(f"batches processed by the CPU manager : "
          f"{int(stats.batches_done.total)}")
    print(f"requests fanned out over {platform.num_ssds} SSDs   : "
          f"{int(stats.requests_done.total)}")
    print(f"manager cores active                 : "
          f"{stats.active_reactors} (bounds {context.controller.bounds})")

    context.free(read_buffer)
    context.close()
    print("done.")


if __name__ == "__main__":
    main()
