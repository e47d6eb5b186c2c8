"""Self-tests of the end-to-end benchmark harness.

The folding, percentile and verdict rules run on synthetic inputs; the
``--smoke`` tests run every workload at tiny sizes through the real
harness, so a change to the program that breaks the benchmark fails here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import bench_e2e
import workload


def span(name, span_id, start, end, parent=None, process="main", **attrs):
    record = {"name": name, "span_id": span_id, "parent_id": parent,
              "process": process, "start": start, "end": end}
    if attrs:
        record["attrs"] = attrs
    return record


class TestFold:
    SPANS = [
        span("round", "m-1", 0.0, 10.0),
        span("train_client", "m-2", 1.0, 4.0, parent="m-1"),
        span("backward", "m-3", 2.0, 3.0, parent="m-2"),
        span("aggregate", "m-4", 5.0, 6.0, parent="m-1"),
        span("encode", "m-5", 6.0, 7.0, parent="m-1"),
        # a worker's span stitched under the round: busy time, never
        # subtracted from the coordinator's round
        span("train_client", "w-1", 1.0, 8.0, parent="m-1", process="worker-0"),
        span("decode", "w-2", 2.0, 3.0, parent="w-1", process="worker-0"),
        span("evaluate", "m-6", 11.0, 12.0),
    ]

    def test_self_time_subtracts_the_union_of_same_process_children(self):
        fold = workload.fold_spans(self.SPANS, (0.0, 13.0))
        assert fold["self"]["round"] == pytest.approx(10.0 - 3.0 - 2.0)
        assert fold["self"]["train_client"] == pytest.approx(2.0)
        assert fold["self"]["backward"] == pytest.approx(1.0)
        assert fold["self"]["aggregate"] == pytest.approx(1.0)
        assert fold["self"]["encode"] == pytest.approx(1.0)
        assert fold["calls"]["train_client"] == 1

    def test_union_merges_overlapping_intervals(self):
        intervals = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (0.0, 0.5)]
        assert workload.union_length(intervals, 0.25, 6.5) == pytest.approx(3.75)

    def test_worker_spans_are_busy_time_not_children(self):
        fold = workload.fold_spans(self.SPANS, (0.0, 13.0))
        assert "decode" not in fold["self"]
        assert fold["worker_busy"] == {"worker-0": pytest.approx(7.0)}

    def test_gaps_land_in_unattributed_and_everything_adds_up(self):
        fold = workload.fold_spans(self.SPANS, (0.0, 13.0))
        assert fold["unattributed"] == pytest.approx(2.0)
        total = sum(fold["self"].values()) + fold["unattributed"]
        assert total == pytest.approx(13.0)

    def test_spans_are_clipped_to_the_window(self):
        fold = workload.fold_spans(self.SPANS, (2.5, 11.5))
        total = sum(fold["self"].values()) + fold["unattributed"]
        assert total == pytest.approx(9.0)
        assert fold["self"]["evaluate"] == pytest.approx(0.5)

    def test_layer_shares_add_up_to_100_with_unknown_spans(self):
        spans = self.SPANS + [span("new_layer", "m-7", 12.0, 12.5)]
        fold = workload.fold_spans(spans, (0.0, 13.0))
        layers = workload.layer_metrics(fold, 13.0)
        shares = [v for k, v in layers.items()
                  if k.endswith("_pct") and not k.startswith("engine.worker")]
        assert sum(shares) == pytest.approx(100.0)
        assert layers["obs.other_spans_pct"] == pytest.approx(100 * 0.5 / 13)
        assert layers["engine.worker_busy_pct"] == pytest.approx(100 * 7 / 13)
        assert layers["engine.worker_idle_pct"] == pytest.approx(100 * 6 / 13)


class TestStatistics:
    @pytest.mark.parametrize("n, p", [
        (5, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
        (10_000, 99.9),
    ])
    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self, n, p):
        values = list(range(1, n + 1))
        tail = bench_e2e.tail_percentile(values)
        assert tail["p"] == p and tail["n"] == n
        if p > 50:
            assert sum(v > tail["value"] for v in values) >= 10

    def test_tail_falls_back_to_the_median(self):
        assert bench_e2e.tail_percentile([3.0, 1.0, 2.0])["value"] == 2.0

    def test_spread_is_the_quartile_distance_over_the_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, median, q3 = bench_e2e.quartiles(values)
        assert bench_e2e.spread(values) == pytest.approx((q3 - q1) / median)
        assert bench_e2e.spread([4.0]) == 0.0

    def test_a_timed_run_reports_medians_of_speed_scaled_cpu_times(self):
        samples = [{"cpu": {"setup": setup, "run": run}, "peak_rss_mb": rss,
                    "speed": {"setup": 0.5, "run": speed}}
                   for setup, run, speed, rss in [(0.6, 5.0, 1.0, 70.0),
                                                  (1.0, 8.0, 0.5, 72.0),
                                                  (0.8, 6.0, 1.0, 71.0)]]
        assert bench_e2e.reduce_run(samples) == {
            "setup_s": 0.4, "run_cpu_s": 5.0, "peak_rss_mb": 71.0,
        }


class TestSpeed:
    REF = workload.REFERENCE_S
    SAMPLES = [(1.0, REF), (2.0, 2 * REF), (3.0, REF / 2), (9.0, REF)]

    def test_speed_is_the_mean_over_the_samples_in_the_window(self):
        speed = workload.speed_factor(self.SAMPLES, 1.5, 3.0)
        assert speed == pytest.approx((0.5 + 2.0) / 2)

    def test_an_empty_window_falls_back_to_every_sample(self):
        speed = workload.speed_factor(self.SAMPLES, 4.0, 5.0)
        assert speed == pytest.approx((1.0 + 0.5 + 2.0 + 1.0) / 4)


class TestVerdict:
    BASE = [10.0, 10.1, 9.9, 10.0, 10.05]

    def test_unchanged_within_the_bound(self):
        new = [v * 1.05 for v in self.BASE]
        assert bench_e2e.verdict(self.BASE, new, "lower", 0.1) == "unchanged"

    def test_worse_and_better_follow_the_direction(self):
        slower = [v * 1.3 for v in self.BASE]
        assert bench_e2e.verdict(self.BASE, slower, "lower", 0.1) == "worse"
        assert bench_e2e.verdict(self.BASE, slower, "higher", 0.1) == "better"
        assert bench_e2e.verdict(slower, self.BASE, "lower", 0.1) == "better"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [5.0, 8.0, 10.0, 12.0, 15.0]
        assert bench_e2e.verdict(self.BASE, noisy, "lower", 0.1) == "unresolved"

    def test_every_new_sample_better_wins_despite_spread(self):
        noisy = [5.0, 6.0, 7.0, 8.0, 9.0]
        assert bench_e2e.verdict(self.BASE, noisy, "lower", 0.1) == "better"
        assert bench_e2e.verdict(self.BASE, noisy, "higher", 0.1) == "unresolved"


class TestDefinition:
    def test_metric_catalogue_matches_the_harness(self):
        bench = bench_e2e.benchmark_definition()
        names = [m["name"] for m in bench["end_to_end"]]
        assert set(names) == set(bench_e2e.END_TO_END)
        assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
        spec = bench_e2e.spec_definition()
        assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
        assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(bench_e2e.HERE / "bench_e2e.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    return proc, json.loads(out.read_text()) if out.exists() else None, elapsed


class TestSmoke:
    def test_suite_runs_all_workloads_and_its_checks_pass(self, smoke_record):
        proc, record, elapsed = smoke_record
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert record["correct"] and not record["problems"]
        assert set(record["workloads"]) == set(
            bench_e2e.spec_definition()["workloads"]
        )
        assert record["host"]["blas_env"] == bench_e2e.BLAS_PIN
        for entry in record["workloads"].values():
            assert len(entry["runs"]) == 1
            assert [s["traced"] for s in entry["samples"]] == [False, True]
        assert elapsed < 60

    def test_every_declared_metric_is_printed_with_its_unit(self, smoke_record):
        proc, record, _ = smoke_record
        bench = bench_e2e.benchmark_definition()
        lines = [line.split() for line in proc.stdout.splitlines()]
        for entry in bench["end_to_end"] + bench["per_layer"]:
            printed = [l for l in lines if l[:1] == [entry["name"]]]
            assert len(printed) == len(record["workloads"]), entry["name"]
            assert all(l[2] == entry["unit"] for l in printed), entry["name"]

    def test_socket_matches_serial_exactly(self, smoke_record):
        _, record, _ = smoke_record
        fingerprints = record["fingerprints"]
        assert fingerprints["fedknow-socket2"] == fingerprints["fedknow-serial"]

    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_timed_run_prints_the_contract_json(self, trace):
        proc = subprocess.run(
            [sys.executable, str(bench_e2e.HERE / "bench_e2e.py"),
             "--workload", "fedknow-socket2", "--smoke", "--seed", "3",
             "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        bench = bench_e2e.benchmark_definition()
        declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in declared
        }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench_e2e.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench_e2e.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload",
         "fedknow-serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
