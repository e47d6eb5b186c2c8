"""FedKNOW core: signature task knowledge extraction, restoration, integration."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".client": ("FedKnowClient",),
    ".config": ("FedKnowConfig",),
    ".distance": (
        "DISTANCES", "cosine_distance", "l2_distance",
        "select_signature_tasks", "wasserstein_distance",
    ),
    ".integrator": ("GradientIntegrator", "IntegrationResult"),
    ".knowledge": ("KnowledgeExtractor", "KnowledgeStore", "TaskKnowledge"),
    ".qp": (
        "SOLVERS", "nnqp_objective", "solve_nnqp", "solve_nnqp_active_set",
        "solve_nnqp_projected_gradient",
    ),
    ".restorer": ("GradientRestorer",),
    ".theory": (
        "ConvergenceConstants", "gap_curve", "global_weight_bound",
        "local_weight_bound", "theorem1_gap",
    ),
})

__all__ = [
    "ConvergenceConstants",
    "gap_curve",
    "global_weight_bound",
    "local_weight_bound",
    "theorem1_gap",
    "DISTANCES",
    "FedKnowClient",
    "FedKnowConfig",
    "GradientIntegrator",
    "GradientRestorer",
    "IntegrationResult",
    "KnowledgeExtractor",
    "KnowledgeStore",
    "SOLVERS",
    "TaskKnowledge",
    "cosine_distance",
    "l2_distance",
    "nnqp_objective",
    "select_signature_tasks",
    "solve_nnqp",
    "solve_nnqp_active_set",
    "solve_nnqp_projected_gradient",
    "wasserstein_distance",
]
