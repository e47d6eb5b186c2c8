"""Fig. 5: total communication volume (GB), FedKNOW vs FedWEIT, 5 datasets.

Shape assertion (paper: 34.28 % average reduction): FedKNOW transfers
strictly less than FedWEIT on every dataset, because FedWEIT additionally
ships sparse adaptives every round plus the all-clients adaptive broadcast
at every task start.

The fig5-wire companion sweeps the transport (dense v1 vs delta v2 vs
signature-sparse v2) and asserts the compressed uploads actually shrink
the measured volumes for every method.
"""

from __future__ import annotations

from conftest import record_report
from repro.experiments import BENCH, FIG4_DATASETS, run_fig5, run_fig5_wire


def test_fig5_comm_volume(benchmark):
    report = benchmark.pedantic(
        lambda: run_fig5(datasets=FIG4_DATASETS, preset=BENCH),
        rounds=1,
        iterations=1,
    )
    print()
    print(report)
    record_report("fig5", str(report))
    for dataset, entry in report.volumes.items():
        assert entry["fedknow"] < entry["fedweit"], (dataset, entry)
    assert report.mean_saving_percent() > 5.0


def test_fig5_wire_variants(benchmark):
    report = benchmark.pedantic(
        lambda: run_fig5_wire(dataset="cifar100", preset=BENCH),
        rounds=1,
        iterations=1,
    )
    print()
    print(report)
    record_report("fig5-wire", str(report))
    for method, entries in report.uploads.items():
        dense_gb, dense_x = entries["dense-v1"]
        delta_gb, _ = entries["delta-v2"]
        sparse_gb, _ = entries["sparse-v2"]
        assert dense_x == 1.0, method
        # compressed uploads shrink every method's measured volume (methods
        # with incompressible side-channels — FedWEIT adaptives, FLCN
        # samples — shrink less than the pure-model methods)
        assert delta_gb < dense_gb, (method, entries)
        assert sparse_gb < dense_gb, (method, entries)
    # the acceptance bar: FedKNOW's rho=0.1 deltas at least halve its volume
    fedknow_dense, _ = report.uploads["fedknow"]["dense-v1"]
    fedknow_delta, fedknow_x = report.uploads["fedknow"]["delta-v2"]
    assert fedknow_delta * 2 <= fedknow_dense
    assert fedknow_x >= 2.0
