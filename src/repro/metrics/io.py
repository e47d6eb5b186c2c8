"""Persisting run results to JSON.

Experiments at ``paper`` scale take hours; saving each :class:`RunResult` lets
reports (EXPERIMENTS.md tables, figures) be rebuilt without retraining, and
lets results be diffed across code versions.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

from .tracker import RoundRecord, RunResult


def result_to_dict(result: RunResult) -> dict:
    """Convert a :class:`RunResult` to a JSON-serialisable dictionary."""
    return {
        "method": result.method,
        "dataset": result.dataset,
        "scenario": result.scenario,
        "participation": result.participation,
        "transport": result.transport,
        "selector": result.selector,
        "num_clients": result.num_clients,
        "num_tasks": result.num_tasks,
        "accuracy_matrix": [
            [None if np.isnan(v) else float(v) for v in row]
            for row in result.accuracy_matrix
        ],
        "wall_seconds": result.wall_seconds,
        "rounds": [
            {
                "position": r.position,
                "round_index": r.round_index,
                "upload_bytes": r.upload_bytes,
                "download_bytes": r.download_bytes,
                "sim_train_seconds": r.sim_train_seconds,
                "sim_comm_seconds": r.sim_comm_seconds,
                "active_clients": r.active_clients,
                "mean_loss": None if np.isnan(r.mean_loss) else r.mean_loss,
                "planned_clients": r.planned_clients,
                "reported_clients": r.reported_clients,
                "stale_clients": r.stale_clients,
                "evicted": r.evicted,
                "raw_upload_bytes": r.raw_upload_bytes,
                "shard_reported": list(r.shard_reported),
                "skipped": r.skipped,
                "lost": r.lost,
            }
            for r in result.rounds
        ],
    }


def result_from_dict(payload: dict) -> RunResult:
    """Inverse of :func:`result_to_dict`."""
    matrix = np.array(
        [
            [np.nan if v is None else v for v in row]
            for row in payload["accuracy_matrix"]
        ],
        dtype=float,
    )
    if matrix.size == 0:
        matrix = np.zeros((0, 0))
    rounds = [
        RoundRecord(
            position=r["position"],
            round_index=r["round_index"],
            upload_bytes=r["upload_bytes"],
            download_bytes=r["download_bytes"],
            sim_train_seconds=r["sim_train_seconds"],
            sim_comm_seconds=r["sim_comm_seconds"],
            active_clients=r["active_clients"],
            mean_loss=np.nan if r["mean_loss"] is None else r["mean_loss"],
            # absent in payloads written before participation policies
            planned_clients=r.get("planned_clients", -1),
            reported_clients=r.get("reported_clients", -1),
            stale_clients=r.get("stale_clients", 0),
            # absent in payloads written before bounded straggler carry
            evicted=r.get("evicted", 0),
            # absent in payloads written before the transport redesign
            raw_upload_bytes=r.get("raw_upload_bytes", -1),
            # absent in payloads written before the sharded population
            # subsystem (their ``merge_seconds`` timer is ignored: the
            # ``aggregate`` telemetry span times the merge)
            shard_reported=tuple(r.get("shard_reported", ())),
            skipped=r.get("skipped", False),
            # absent in payloads written before the socket federation service
            lost=r.get("lost", 0),
        )
        for r in payload["rounds"]
    ]
    return RunResult(
        method=payload["method"],
        dataset=payload["dataset"],
        num_clients=payload["num_clients"],
        num_tasks=payload["num_tasks"],
        accuracy_matrix=matrix,
        rounds=rounds,
        wall_seconds=payload["wall_seconds"],
        participation=payload.get("participation", "full"),
        transport=payload.get("transport", "v1:dense"),
        # absent in payloads written before the scenario API
        scenario=payload.get("scenario", "class-inc"),
        # absent in payloads written before the curvature subsystem
        selector=payload.get("selector", "magnitude"),
    )


def save_result(result: RunResult, path: str | os.PathLike) -> None:
    """Write one result as JSON."""
    with open(path, "w") as handle:
        json.dump(result_to_dict(result), handle, indent=1)


def load_result(path: str | os.PathLike) -> RunResult:
    """Load one result previously written by :func:`save_result`."""
    with open(path) as handle:
        return result_from_dict(json.load(handle))


def save_result_with_telemetry(
    result: RunResult, session, out_dir: str | os.PathLike
) -> dict:
    """Persist a run result next to its telemetry session's exports.

    Flushes the :class:`~repro.obs.export.Telemetry` session into
    ``out_dir`` (``spans.jsonl``, ``trace.json``, ``metrics.prom``,
    ``metrics.json``) and writes the run's ``result.json`` beside them,
    so one directory captures both what the run produced and how it ran.
    Returns the format -> path mapping, including ``"result"``.
    """
    paths = dict(session.flush(out_dir))
    result_path = os.path.join(os.fspath(out_dir), "result.json")
    save_result(result, result_path)
    paths["result"] = result_path
    return paths


def save_results(results: Iterable[RunResult], path: str | os.PathLike) -> None:
    """Write a collection of results as one JSON array."""
    with open(path, "w") as handle:
        json.dump([result_to_dict(r) for r in results], handle, indent=1)


def load_results(path: str | os.PathLike) -> list[RunResult]:
    """Load a collection written by :func:`save_results`."""
    with open(path) as handle:
        return [result_from_dict(p) for p in json.load(handle)]
