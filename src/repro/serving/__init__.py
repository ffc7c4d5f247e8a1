"""LLM and RecSys serving stack (the vLLM analog of Section 4.2).

* :mod:`repro.serving.request` -- request lifecycle and per-request
  latency metrics (TTFT, TPOT).
* :mod:`repro.serving.dataset` -- synthetic request generators: the
  fixed-length sweeps of Section 3.5 and a Dynamic-Sonnet-like
  variable-length dataset for Figure 17(d, e).
* :mod:`repro.serving.engine` -- the step-driven continuous-batching
  serving engine over a :class:`~repro.models.llama.LlamaCostModel`,
  with a maximum decode batch size (the Figure 17(d, e) sweep knob).
* :mod:`repro.serving.engine_core` -- the struct-of-arrays request
  store the engine steps.
* :mod:`repro.serving.recsys` -- single-device RecSys serving over a
  :class:`~repro.models.dlrm.DlrmCostModel`.
"""

from repro.serving.dataset import (
    dynamic_sonnet_requests,
    fixed_length_requests,
    iter_dynamic_sonnet_requests,
)
from repro.serving.engine import (
    FaultStats,
    KvCacheError,
    LlmServingEngine,
    ResiliencePolicy,
    ServingReport,
)
from repro.serving.loadgen import (
    LoadTestReport,
    ResilientLoadReport,
    max_sustainable_rate,
    poisson_arrivals,
    run_load_test,
    run_resilient_load_test,
)
from repro.serving.recsys import RecSysServer, RecSysReport
from repro.serving.request import Request, RequestState, RetryPolicy

__all__ = [
    "FaultStats",
    "LoadTestReport",
    "ResiliencePolicy",
    "ResilientLoadReport",
    "max_sustainable_rate",
    "poisson_arrivals",
    "run_load_test",
    "run_resilient_load_test",
    "KvCacheError",
    "LlmServingEngine",
    "RecSysReport",
    "RecSysServer",
    "Request",
    "RequestState",
    "RetryPolicy",
    "ServingReport",
    "dynamic_sonnet_requests",
    "fixed_length_requests",
    "iter_dynamic_sonnet_requests",
]
