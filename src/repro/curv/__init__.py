"""Signature-weight scoring for the FedKNOW reproduction.

The consumer-facing seam is :class:`SignatureSelector`: pluggable scoring
of signature-task weights for the knowledge extractor (``magnitude`` /
``fisher`` / ``hybrid:<mix>``), selected per run via ``--selector``.  The
only curvature estimate is the empirical Fisher diagonal
(:func:`empirical_fisher_diagonal`), computed by replaying a batch-1
masked cross-entropy tape captured on the live model; it varies with its
``chunk`` only in float64 summation order.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".fisher": ("empirical_fisher_diagonal",),
    ".selector": (
        "SELECTOR_SPECS", "FisherSelector", "HybridSelector",
        "MagnitudeSelector", "SignatureSelector", "create_selector",
    ),
})

__all__ = [
    "SELECTOR_SPECS",
    "FisherSelector",
    "HybridSelector",
    "MagnitudeSelector",
    "SignatureSelector",
    "create_selector",
    "empirical_fisher_diagonal",
]
