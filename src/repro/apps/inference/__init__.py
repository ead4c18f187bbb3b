"""LLM inference serving: the latency-sensitive production workload.

See :mod:`repro.apps.inference.serving` for the DES,
:mod:`repro.apps.inference.slo` for the latency-SLO penalty layer.
"""

from ..._lazy import lazy_exports

__all__ = [
    "LLMSpec",
    "Request",
    "generate_requests",
    "BatchQueue",
    "InferenceProfileConfig",
    "InferenceRunResult",
    "RequestRecord",
    "BatchRecord",
    "SLOReport",
    "run_inference",
    "profile_inference",
    "PHASE_PREFILL",
    "PHASE_DECODE",
    "PHASE_KV",
    "PHASE_MISC",
    "SLOResponse",
    "PredictedSLOResponse",
    "measure_slo_response",
    "phase_profile",
    "predict_slo_response",
    "TTFT_SERIES",
    "TPOT_SERIES",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".llm": ("LLMSpec",),
        ".arrivals": ("Request", "generate_requests"),
        ".batcher": ("BatchQueue",),
        ".serving": (
            "InferenceProfileConfig",
            "InferenceRunResult",
            "RequestRecord",
            "BatchRecord",
            "SLOReport",
            "run_inference",
            "profile_inference",
            "PHASE_PREFILL",
            "PHASE_DECODE",
            "PHASE_KV",
            "PHASE_MISC",
        ),
        ".slo": (
            "SLOResponse",
            "PredictedSLOResponse",
            "measure_slo_response",
            "phase_profile",
            "predict_slo_response",
            "TTFT_SERIES",
            "TPOT_SERIES",
        ),
    },
)
