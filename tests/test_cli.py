"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import FIGURES, main


class TestList:
    def test_list_prints_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fedknow" in out
        assert "cifar100" in out
        assert "combined" in out
        assert "resnet18" in out
        assert "fig5" in out
        assert "class-inc" in out

    def test_list_shows_selectors(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "selectors" in out
        assert "magnitude" in out
        assert "fisher" in out
        assert "hybrid:<mix>" in out


class TestRun:
    def test_run_unit_scale(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "svhn",
            "--preset", "unit", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "forgetting" in out
        assert "fedavg" in out

    def test_run_overrides_clients_and_tasks(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--clients", "2", "--tasks", "2",
        ])
        assert code == 0

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "sgd", "--dataset", "svhn"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "fedavg", "--dataset", "imagenet"])

    def test_run_with_v2_delta_transport(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--wire", "v2", "--upload", "delta",
            "--upload-ratio", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "v2:delta:0.1" in out
        assert "compression" in out

    def test_fp16_requires_wire_v2(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--fp16",
        ])
        assert code == 2
        assert "--wire v2" in capsys.readouterr().err

    def test_upload_ratio_validated(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--upload", "delta", "--upload-ratio", "0",
        ])
        assert code == 2
        assert "--upload-ratio" in capsys.readouterr().err

    def test_unknown_upload_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "fedavg", "--dataset", "svhn",
                  "--upload", "zip"])

    def test_run_with_scenario(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "svhn",
            "--preset", "unit", "--scenario", "blurry:overlap=0.4",
        ])
        assert code == 0
        assert "blurry:overlap=0.4" in capsys.readouterr().out

    def test_invalid_scenario_rejected(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "svhn",
            "--preset", "unit", "--scenario", "imagenet-inc",
        ])
        assert code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_combined_dataset_runs_from_cli(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "combined",
            "--preset", "unit", "--tasks", "2",
        ])
        assert code == 0
        assert "combined" in capsys.readouterr().out

    def test_run_with_shards_and_process_engine(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--engine", "socket:2", "--shards", "2",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_process_engine_rejects_server_coupled_method(self, capsys):
        code = main([
            "run", "--method", "flcn", "--dataset", "cifar100",
            "--preset", "unit", "--engine", "socket:2",
        ])
        assert code == 2
        assert "serial or thread" in capsys.readouterr().err

    def test_invalid_engine_rejected(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--engine", "quantum",
        ])
        assert code == 2
        assert "--engine" in capsys.readouterr().err

    def test_invalid_shards_rejected(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--shards", "0",
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_invalid_selector_rejected(self, capsys):
        code = main([
            "run", "--method", "fedknow", "--dataset", "cifar100",
            "--preset", "unit", "--selector", "entropy",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --selector" in err
        assert "entropy" in err
        assert "magnitude" in err  # the error lists the known selectors

    def test_selector_on_non_extracting_method_rejected(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--selector", "fisher",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --selector" in err
        assert "fedavg" in err

    def test_run_with_selector(self, capsys):
        code = main([
            "run", "--method", "fedknow", "--dataset", "svhn",
            "--preset", "unit", "--selector", "fisher",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "fisher" in out  # the summary records the selector


class TestFigure:
    def test_figures_catalogue_complete(self):
        for name in ("fig4", "fig5", "fig5-wire", "fig6", "fig7", "fig8",
                     "fig9", "fig10", "table1", "ablations", "fig4-hetero",
                     "fig-scenarios", "fig-scaling", "fig-eventsim",
                     "fig-curvature"):
            assert name in FIGURES

    def test_fig5_unit(self, capsys):
        from repro.experiments import clear_cache

        clear_cache()
        code = main(["figure", "fig5", "--preset", "unit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fedknow_gb" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestSimulate:
    def test_simulate_prints_report(self, capsys):
        code = main([
            "simulate", "--clients", "2000",
            "--population", "pareto:1.5,scale=0.01,churn=60/120",
            "--rounds", "3", "--shards", "4", "--max-staleness", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "eventsim: 2000 clients" in out
        assert "per-round serving" in out

    def test_simulate_rejects_bad_spec(self, capsys):
        code = main(["simulate", "--clients", "10",
                     "--population", "weibull:2"])
        assert code == 2
        assert "population" in capsys.readouterr().err

    def test_simulate_rejects_bad_deadline(self, capsys):
        code = main(["simulate", "--clients", "10", "--deadline", "soon"])
        assert code == 2
        assert "deadline" in capsys.readouterr().err


class TestPopulationFlags:
    def test_run_with_population_and_max_staleness(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--clients", "3", "--tasks", "2",
            "--population", "fixed,churn=20/30",
            "--participation", "deadline:auto", "--max-staleness", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "deadline:auto,max=3" in out
        assert "evicted" in out

    def test_max_staleness_needs_deadline_policy(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--max-staleness", "2",
        ])
        assert code == 2
        assert "max-staleness" in capsys.readouterr().err

    def test_invalid_population_rejected(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--population", "pareto",
        ])
        assert code == 2
        assert "population" in capsys.readouterr().err


class TestSearchCommand:
    def test_search_unit(self, capsys):
        from repro.experiments import clear_cache

        clear_cache()
        code = main(["search", "--preset", "unit"])
        assert code == 0
        assert "best" in capsys.readouterr().out


class TestServeCommands:
    def test_list_shows_engines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "engines" in out
        assert "socket[:W]" in out
        assert "process[:W]" not in out

    def test_invalid_engine_rejected_with_clear_message(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "svhn",
            "--preset", "unit", "--engine", "quantum",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --engine" in err
        assert "quantum" in err
        assert "socket" in err  # the error lists the known engines

    def test_socket_engine_accepted_by_run(self, capsys):
        code = main([
            "run", "--method", "fedavg", "--dataset", "svhn",
            "--preset", "unit", "--engine", "socket:2",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_worker_rejects_malformed_connect(self, capsys):
        code = main(["worker", "--connect", "nonsense"])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_reports_unreachable_server(self, capsys):
        probe_code = main([
            "worker", "--connect", "127.0.0.1:1", "--retries", "1",
        ])
        assert probe_code == 1
        assert "could not connect" in capsys.readouterr().err

    def test_serve_validates_worker_count(self, capsys):
        code = main([
            "serve", "--method", "fedavg", "--dataset", "cifar100",
            "--preset", "unit", "--workers", "0",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
