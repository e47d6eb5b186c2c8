"""Fig. 5 — total communication volume (GB): FedKNOW vs FedWEIT per dataset.

FedKNOW (like all the FedAvg-based methods) only exchanges model weights;
FedWEIT additionally uploads sparse adaptive weights every round and
broadcasts every other client's adaptives at each task start, so its volume
grows with clients and tasks.  The paper reports a 34.28 % average reduction
for FedKNOW.

Volumes are accumulated from the per-round ``upload_bytes`` /
``download_bytes`` records, which the clients measure as the wire codec's
exact encoded payload sizes (:func:`repro.utils.serialization.encoded_num_bytes`)
— dense records for model states, ``{indices: int32, values: float32}``
records for sparse adaptives — not from ``nbytes`` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.specs import get_spec
from ..edge.cluster import jetson_cluster
from ..metrics.tracker import RunResult
from .config import BENCH, ScalePreset
from .fig4_accuracy import FIG4_DATASETS
from .reporting import format_table
from .runner import run_single


@dataclass
class Fig5Report:
    """Total communication volume per dataset for the two FCL methods."""

    datasets: list[str]
    volumes: dict[str, dict[str, float]] = field(default_factory=dict)  # GB

    @property
    def rows(self) -> list[list]:
        rows = []
        for dataset in self.datasets:
            entry = self.volumes[dataset]
            saving = 100.0 * (1.0 - entry["fedknow"] / max(entry["fedweit"], 1e-12))
            rows.append(
                [
                    dataset,
                    round(entry["fedknow"], 3),
                    round(entry["fedweit"], 3),
                    f"{saving:.1f}%",
                ]
            )
        return rows

    def mean_saving_percent(self) -> float:
        savings = []
        for entry in self.volumes.values():
            savings.append(100.0 * (1.0 - entry["fedknow"] / entry["fedweit"]))
        return float(np.mean(savings))

    def __str__(self) -> str:
        table = format_table(
            ["dataset", "fedknow_gb", "fedweit_gb", "saving"],
            self.rows,
            title="Fig.5: total communication volume (GB)",
        )
        return f"{table}\nmean saving: {self.mean_saving_percent():.2f}%"


def run_fig5(
    datasets: tuple[str, ...] = FIG4_DATASETS,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    transport: str = "v1:dense",
) -> Fig5Report:
    """Measure total communication volume of FedKNOW vs FedWEIT."""
    report = Fig5Report(datasets=list(datasets))
    cluster = jetson_cluster()
    for dataset in datasets:
        spec = get_spec(dataset)
        entry = {}
        for method in ("fedknow", "fedweit"):
            result: RunResult = run_single(
                method, spec, preset, cluster=cluster, seed=seed,
                transport=transport,
            )
            entry[method] = result.total_comm_bytes / 1e9
        report.volumes[dataset] = entry
    return report


#: The fig5-wire comparison: label -> transport spec.
WIRE_VARIANTS: tuple[tuple[str, str], ...] = (
    ("dense-v1", "v1:dense"),
    ("delta-v2", "v2:delta:0.1"),
    ("sparse-v2", "v2:sparse:0.1"),
)


@dataclass
class Fig5WireReport:
    """Upload volume per method under each transport variant.

    Raw Fig. 5 upload volumes for every method under dense v1, top-k delta
    v2 and signature-sparse v2 uploads, plus each variant's measured
    compressed-vs-raw ratio — what the pluggable transport buys per method.
    """

    dataset: str
    variants: tuple[tuple[str, str], ...] = WIRE_VARIANTS
    # uploads[method][variant_label] = (upload_gb, compression_x)
    uploads: dict[str, dict[str, tuple[float, float]]] = field(
        default_factory=dict
    )

    @property
    def rows(self) -> list[list]:
        rows = []
        for method, entries in self.uploads.items():
            row = [method]
            for label, _ in self.variants:
                gb, ratio = entries[label]
                row.append(round(gb, 4))
                row.append(f"{ratio:.2f}x")
            rows.append(row)
        return rows

    def __str__(self) -> str:
        headers = ["method"]
        for label, _ in self.variants:
            headers += [f"{label}_gb", f"{label}_x"]
        return format_table(
            headers,
            self.rows,
            title=(
                f"Fig.5-wire: upload volume by transport ({self.dataset})"
            ),
        )


def run_fig5_wire(
    dataset: str = "cifar100",
    methods: tuple[str, ...] | None = None,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    variants: tuple[tuple[str, str], ...] = WIRE_VARIANTS,
) -> Fig5WireReport:
    """Compare Fig. 5 upload volumes across transports.

    Runs every method under each transport variant and reports measured
    upload gigabytes plus the channel's compressed-vs-raw ratio.
    """
    from ..federated.registry import ALL_METHODS

    methods = tuple(methods) if methods is not None else ALL_METHODS
    report = Fig5WireReport(dataset=dataset, variants=tuple(variants))
    cluster = jetson_cluster()
    spec = get_spec(dataset)
    for method in methods:
        entries: dict[str, tuple[float, float]] = {}
        for label, transport in report.variants:
            result = run_single(
                method, spec, preset, cluster=cluster, seed=seed,
                transport=transport,
            )
            entries[label] = (
                result.total_upload_bytes / 1e9,
                result.upload_compression,
            )
        report.uploads[method] = entries
    return report
