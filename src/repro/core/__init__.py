"""CAM: the paper's contribution.

Asynchronous GPU-initiated, CPU-managed SSD management for batching
storage access:

* :mod:`repro.core.control` — the CPU-side management threads built on
  SPDK-style user-space queue pairs (Section III-A); the four GPU<->CPU
  sync regions of Section III-B are modelled by the doorbell and poll
  costs;
* :mod:`repro.core.elastic` — dynamic adjustment of manager cores between
  N/4 and N/2 per N SSDs (Challenge 1): a pure
  :class:`~repro.core.elastic.ElasticCorePolicy` applied by each
  manager's one :class:`~repro.core.elastic.ElasticController`, fed the
  paper's per-batch compute/I-O signal or sampler busy fractions;
* :mod:`repro.core.async_api` — the raw asynchronous flavour (CAM-Async
  in Fig. 11), the one way a batch is initiated;
* :mod:`repro.core.api` — the user-facing API of Table II: ``CAM_init``,
  ``CAM_alloc``, ``CAM_free``, ``prefetch``, ``prefetch_synchronize``,
  ``write_back``, ``write_back_synchronize``; the device calls are the
  asynchronous API with one outstanding batch per direction;
* :mod:`repro.core.pipeline` — the double-buffer prefetch/compute pipeline
  idiom of Figs. 6/7.
"""

from repro.core.api import CamContext, CamDeviceAPI
from repro.core.async_api import CamAsyncAPI, CamTicket
from repro.core.control import BatchRequest, CamManager
from repro.core.elastic import (
    CoreDecision,
    ElasticController,
    ElasticCorePolicy,
)
from repro.core.pipeline import DoubleBuffer, run_prefetch_pipeline

__all__ = [
    "BatchRequest",
    "CamAsyncAPI",
    "CamContext",
    "CamDeviceAPI",
    "CamManager",
    "CamTicket",
    "CoreDecision",
    "DoubleBuffer",
    "ElasticController",
    "ElasticCorePolicy",
    "run_prefetch_pipeline",
]
