"""Tests for the experiment harness (presets, runner cache, figure reports)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import cifar100_like
from repro.experiments import (
    BENCH,
    PAPER,
    UNIT,
    clear_cache,
    comm_seconds_under_bandwidth,
    format_series,
    format_table,
    get_preset,
    improvement_curve,
    run_fig4_panel,
    run_fig5,
    run_fig6,
    run_fig8,
    run_fig_scaling,
    run_fig_scenarios,
    run_single,
    run_table1,
)
from repro.experiments.search import grid_search
from repro.metrics import RunResult

FAST_METHODS = ("fedknow", "fedweit", "fedavg")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestPresets:
    def test_known_presets(self):
        assert get_preset("unit") is UNIT
        assert get_preset("bench") is BENCH
        assert get_preset("paper") is PAPER
        with pytest.raises(KeyError):
            get_preset("huge")

    def test_apply_to_spec_scales(self):
        spec = UNIT.apply_to_spec(cifar100_like())
        assert spec.num_tasks == UNIT.num_tasks
        assert spec.train_per_class == UNIT.train_per_class

    def test_apply_does_not_grow_small_specs(self):
        from repro.data import svhn_like

        spec = BENCH.apply_to_spec(svhn_like())
        assert spec.num_tasks == 2  # svhn only has 2 tasks

    def test_train_config_roundtrip(self):
        config = BENCH.train_config()
        assert config.rounds_per_task == BENCH.rounds_per_task
        assert config.iterations_per_round == BENCH.iterations_per_round

    def test_paper_preset_matches_section_vb(self):
        assert PAPER.num_clients == 20
        assert PAPER.iterations_per_round == 25


class TestRunnerCache:
    def test_same_setting_is_memoised(self):
        spec = cifar100_like()
        first = run_single("fedavg", spec, UNIT)
        second = run_single("fedavg", spec, UNIT)
        assert first is second

    def test_different_method_not_shared(self):
        spec = cifar100_like()
        a = run_single("fedavg", spec, UNIT)
        b = run_single("fedrep", spec, UNIT)
        assert a is not b

    def test_cache_bypass(self):
        spec = cifar100_like()
        a = run_single("fedavg", spec, UNIT)
        b = run_single("fedavg", spec, UNIT, use_cache=False)
        assert a is not b

    def test_method_kwargs_key_differs(self):
        from repro.core.config import FedKnowConfig

        spec = cifar100_like()
        a = run_single(
            "fedknow", spec, UNIT,
            method_kwargs={"fedknow_config": FedKnowConfig(knowledge_ratio=0.05)},
        )
        b = run_single(
            "fedknow", spec, UNIT,
            method_kwargs={"fedknow_config": FedKnowConfig(knowledge_ratio=0.20)},
        )
        assert a is not b

    def test_result_is_complete(self):
        result = run_single("fedavg", cifar100_like(), UNIT)
        assert isinstance(result, RunResult)
        assert result.accuracy_matrix.shape == (UNIT.num_tasks, UNIT.num_tasks)
        assert result.total_comm_bytes > 0


class TestReports:
    def test_fig4_panel_report(self):
        report = run_fig4_panel("cifar100", methods=FAST_METHODS, preset=UNIT)
        assert set(report.results) == set(FAST_METHODS)
        text = str(report)
        assert "cifar100" in text
        for method in FAST_METHODS:
            assert method in text
        assert report.best_method() in FAST_METHODS

    def test_fig_scenarios_report(self):
        report = run_fig_scenarios(
            dataset="svhn", methods=("fedknow", "fedavg"), preset=UNIT,
            scenarios=("class-inc", "blurry:overlap=0.2"),
        )
        text = str(report)
        assert "class-inc_acc" in text
        assert "blurry_fgt" in text
        assert report.best_method("class-inc") in ("fedknow", "fedavg")
        assert report.results["fedavg"]["class-inc"].scenario == "class-inc"
        assert (
            report.results["fedavg"]["blurry:overlap=0.2"].scenario
            == "blurry:overlap=0.2"
        )

    def test_fig_scenarios_sweep_labels_disambiguated(self):
        report = run_fig_scenarios(
            dataset="svhn", methods=("fedavg",), preset=UNIT,
            scenarios=("blurry:overlap=0.2", "blurry:overlap=0.4"),
        )
        # same family twice: columns fall back to the full spec string
        assert report.labels() == {
            "blurry:overlap=0.2": "blurry:overlap=0.2",
            "blurry:overlap=0.4": "blurry:overlap=0.4",
        }
        text = str(report)
        assert "blurry:overlap=0.2_acc" in text
        assert "blurry:overlap=0.4_acc" in text

    def test_table1_improvement_math(self):
        fedknow = RunResult("fedknow", "d", 2, 2,
                            np.array([[0.8, np.nan], [0.6, 0.8]]))
        base = RunResult("fedavg", "d", 2, 2,
                         np.array([[0.4, np.nan], [0.3, 0.4]]))
        curve = improvement_curve(fedknow, [base])
        assert curve[0] == pytest.approx(100.0)  # 0.8 vs 0.4
        assert curve[1] == pytest.approx(100.0)  # 0.7 vs 0.35

    def test_table1_report_renders(self):
        report = run_table1(datasets=("cifar100",), preset=UNIT,
                            methods=FAST_METHODS)
        text = str(report)
        assert "Task1" in text
        assert "cifar100" in text
        assert "cifar100" in report.overall

    def test_fig5_fedknow_cheaper(self):
        report = run_fig5(datasets=("cifar100",), preset=UNIT)
        entry = report.volumes["cifar100"]
        assert entry["fedknow"] < entry["fedweit"]
        assert report.mean_saving_percent() > 0
        assert "saving" in str(report)

    def test_fig6_monotone_in_bandwidth(self):
        report = run_fig6(preset=UNIT, bandwidths=(100_000, 1_000_000))
        for model_label, methods in report.times.items():
            for method, hours in methods.items():
                assert hours[0] > hours[1]  # slower link -> more time
        assert "50" not in str(report) or True

    def test_comm_seconds_replay(self):
        result = run_single("fedavg", cifar100_like(), UNIT)
        slow = comm_seconds_under_bandwidth(result, 50_000)
        fast = comm_seconds_under_bandwidth(result, 10_000_000)
        assert slow > fast

    def test_fig8_report_counts(self):
        report = run_fig8(preset=UNIT, client_counts=(2, 3),
                          methods=("fedavg", "fedknow"))
        assert set(report.results) == {2, 3}
        assert "clients" in str(report)

    def test_fig_scaling_grid(self):
        report = run_fig_scaling(UNIT, populations=(4,), rounds=1)
        # the serial reference leads, then each other default engine
        assert [row.engine for row in report.rows] == [
            "serial", "batched", "socket",
        ]
        assert all(row.population == 4 and row.rounds == 1
                   for row in report.rows)
        assert all(row.state_ok for row in report.rows)


class TestSearch:
    def test_grid_search_orders_results(self):
        result = grid_search(
            "fedavg", {"share": [1]}, preset=UNIT,
            method_kwargs_builder=lambda p: {},
        )
        assert len(result.entries) == 1
        params, acc = result.best
        assert 0.0 <= acc <= 1.0
        assert "best" in str(result)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("|" in line for line in (lines[0], lines[2], lines[3]))

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_format_series(self):
        text = format_series("label", [1, 2], [0.5, 0.25],
                             x_name="t", y_name="acc")
        assert "label" in text
        assert "t" in text and "acc" in text

    def test_float_formatting(self):
        from repro.experiments.reporting import _fmt

        assert _fmt(float("nan")) == "nan"
        assert _fmt(0.5) == "0.5"
        assert _fmt(1234.5) == "1.23e+03"
        assert _fmt(3) == "3"
