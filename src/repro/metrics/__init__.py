"""Evaluation metrics for federated continual learning."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".io": (
        "load_result", "load_results", "result_from_dict", "result_to_dict",
        "save_result", "save_results",
    ),
    ".tracker": (
        "RoundRecord", "RunResult", "accuracy_matrix_from_client_evals",
    ),
})

__all__ = [
    "RoundRecord",
    "RunResult",
    "accuracy_matrix_from_client_evals",
    "load_result",
    "load_results",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "save_results",
]
