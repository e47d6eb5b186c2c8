"""End-to-end benchmark of the FCL stack: four workloads, per-layer trace.

Three ways to run it, from the root of the repository (the script finds
``src/`` itself; no ``PYTHONPATH`` needed)::

    # one workload for a fixed time, JSON result on the last stdout line
    python3 benchmarks/e2e/bench_e2e.py --workload fedknow-serial \\
        --seed 0 --seconds 25 --trace 0

    # the suite: R timed runs of every workload, interleaved round-robin,
    # then one traced repetition each; checks, prints, writes a record
    python3 benchmarks/e2e/bench_e2e.py --seed 0 --out BENCH.json

    # verdict per workload x end-to-end metric between two suite records
    python3 benchmarks/e2e/bench_e2e.py compare A.json B.json

A timed run repeats the workload until its seconds have passed and reduces
the repetitions to one value per end-to-end metric, their median; the suite
records R such values, so ``compare`` judges the same statistic the single
timed run reports.  Every repetition runs in a fresh process
(``workload.py``) with the BLAS thread pools pinned to one thread, its temp
files confined to ``.bench_build/`` and its own process group, so a leaked
worker process or temp file is seen and counted as a failed check.  Workload
sizes, reference fingerprints and the per-layer catalogue live in
``spec.json``; metric names, units, directions and bounds in the root
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_build" / "e2e"

#: Each repetition runs with one-thread BLAS pools.  Unpinned, the socket
#: workload's two workers each start a pool as wide as the host and
#: oversubscribe its cores, and run times swing by several times.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: One timed run ends within this many seconds.
RUN_BUDGET_S = 170.0

#: End-to-end metric -> its value in one repetition's result.  Times are CPU
#: times, rescaled to the reference CPU by the speed the repetition's probe
#: measured while they ran (README "Steadiness").
END_TO_END = {
    "setup_s": lambda sample: sample["cpu"]["setup"] * sample["speed"]["setup"],
    "run_cpu_s": lambda sample: sample["cpu"]["run"] * sample["speed"]["run"],
    "peak_rss_mb": lambda sample: sample["peak_rss_mb"],
}

_REP_IDS = itertools.count()


def load_json(path: Path) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_definition() -> dict:
    return load_json(ROOT / "BENCHMARK.json")


def spec_definition() -> dict:
    return load_json(HERE / "spec.json")


def workload_spec(spec: dict, name: str, smoke: bool = False) -> dict:
    """The workload's definition, with its ``smoke`` sizes applied if asked."""
    definition = dict(spec["workloads"][name])
    sizes = definition.pop("smoke")
    if smoke:
        definition.update(sizes)
    definition["name"] = name
    return definition


def operations(definition: dict, samples: list[dict],
               errors: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` operations: planned client-rounds (simulated
    rounds for the simulator), with every operation of a crashed or
    timed-out repetition failed."""
    if definition["kind"] == "simulate":
        planned = definition["rounds"]
    else:
        planned = definition["clients"] * definition["tasks"] * definition["rounds"]
    lost = planned * len(errors)
    return (sum(s["attempted"] for s in samples) + lost,
            sum(s["failed"] for s in samples) + lost)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def tail_percentile(values: list[float]) -> dict:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it,
    else the median; always with the sample count ``n``."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in (999, 990, 900):
        if n * (1000 - per_mille) >= 10_000:
            rank = math.ceil(per_mille * n / 1000)
            return {"p": per_mille / 10, "value": ordered[rank - 1], "n": n}
    return {"p": 50.0, "value": statistics.median(ordered), "n": n}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """``better``/``worse``/``unchanged``/``unresolved`` for one metric.

    ``base`` and ``new`` hold one value per timed run.  A change beyond
    ``bound`` (a share of the base median) decides.  When either side's
    quartile spread is wider than the bound the metric is ``unresolved``,
    unless every new run reads better than every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        return "better" if all_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


# ----------------------------------------------------------------------
# one repetition in a fresh process
# ----------------------------------------------------------------------
def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _stop_group(pgid: int, grace_s: float = 2.0) -> bool:
    """Wait for every process of the group to end; kill any still alive
    after ``grace_s``.  True when something had to be killed."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return False
            # killed processes end once reaped by their new parent
            deadline = time.monotonic() + grace_s
            while _group_alive(pgid) and time.monotonic() < deadline:
                time.sleep(0.01)
            return True
        time.sleep(0.01)
    return False


def run_repetition(definition: dict, seed: int, traced: bool,
                   timeout: float) -> dict:
    """Run one repetition; returns its result, or ``{"error": ...}``."""
    tmp = SCRATCH / f"{os.getpid()}-{next(_REP_IDS)}"
    tmp.mkdir(parents=True)
    env = dict(os.environ, **BLAS_PIN, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    probe = tmp.with_suffix(".speed")
    request = {"spec": definition, "seed": seed, "traced": traced,
               "tmp": str(tmp), "probe": str(probe), "spawned_at": time.time()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        error = None if proc.returncode == 0 else (
            f"exit {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        error = f"timed out after {timeout:.0f}s"
    except BaseException:
        # interrupted or terminated (see ``main``): take the repetition along
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        _stop_group(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
        probe.unlink(missing_ok=True)
        raise
    orphans = _stop_group(proc.pid)
    leftovers = sorted(os.listdir(tmp))
    shutil.rmtree(tmp, ignore_errors=True)
    probe.unlink(missing_ok=True)
    if error is not None:
        return {"error": error, "workload": definition["name"]}
    sample = json.loads(stdout.strip().splitlines()[-1])
    sample["checks"]["no_orphan_processes"] = not orphans
    sample["checks"]["no_temp_files_left"] = (
        sample["checks"]["no_temp_files_left"] and not leftovers
    )
    return sample


def failed_checks(samples: list[dict]) -> list[str]:
    """Names of the checks any sample failed, plus a fingerprint split."""
    failed = sorted({
        name for sample in samples
        for name, ok in sample["checks"].items() if not ok
    })
    if len({sample["fingerprint"] for sample in samples}) > 1:
        failed.append("repetitions_agree")
    return failed


# ----------------------------------------------------------------------
# a timed run: one workload for --seconds (the driver contract)
# ----------------------------------------------------------------------
def timed_run(definition: dict, seed: int, seconds: float,
              trace: bool) -> tuple[list[dict], list[dict]]:
    """Repeat the workload in fresh processes until ``seconds`` have passed
    (at least once; with ``trace`` every second repetition is traced and
    at least one of each kind runs).  Returns ``(samples, errors)``."""
    started = time.perf_counter()
    samples, errors = [], []
    longest = 0.0
    for index in itertools.count():
        elapsed = time.perf_counter() - started
        if index >= (2 if trace else 1) and elapsed >= seconds:
            break
        if index and elapsed + 1.5 * longest > RUN_BUDGET_S:
            break
        traced = trace and index % 2 == 1
        rep_started = time.perf_counter()
        sample = run_repetition(definition, seed, traced,
                                RUN_BUDGET_S - elapsed)
        longest = max(longest, time.perf_counter() - rep_started)
        (errors if "error" in sample else samples).append(sample)
        if "error" not in sample:
            print(f"{definition['name']} repetition {index} "
                  f"traced={int(traced)} " + " ".join(
                      f"{name}={fn(sample):.6g}"
                      for name, fn in END_TO_END.items()
                  ) + f" run_wall_s={sample['run_wall_s']:.6g} "
                  f"cpu_speed={sample['speed']['run']:.4g}")
    return samples, errors


def reduce_run(plain: list[dict]) -> dict[str, float]:
    """One value per end-to-end metric from a timed run's untraced
    repetitions: their median."""
    return {name: statistics.median(fn(s) for s in plain)
            for name, fn in END_TO_END.items()}


def traced_over_untraced(traced: list[dict], plain: list[dict]) -> float:
    run_cpu_s = END_TO_END["run_cpu_s"]
    return (statistics.median(run_cpu_s(s) for s in traced)
            / statistics.median(run_cpu_s(s) for s in plain))


def measure(args, bench: dict, spec: dict) -> int:
    definition = workload_spec(spec, args.workload, smoke=args.smoke)
    samples, errors = timed_run(definition, args.seed, args.seconds,
                                bool(args.trace))
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    attempted, failed = operations(definition, samples, errors)
    problems = failed_checks(samples)
    metrics = {}
    if args.trace and plain and traced:
        for entry in bench["per_layer"]:
            name = entry["name"]
            if name == "obs.traced_over_untraced":
                value = traced_over_untraced(traced, plain)
            else:
                value = statistics.median(s["layers"][name] for s in traced)
            metrics[name] = {"value": value, "unit": entry["unit"]}
    elif not args.trace and plain:
        values = reduce_run(plain)
        metrics = {entry["name"]: {"value": values[entry["name"]],
                                   "unit": entry["unit"]}
                   for entry in bench["end_to_end"]}
    correct = not errors and not problems and bool(metrics)
    for error in errors:
        print(f"repetition failed: {error['error']}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def host_facts(sample: dict | None) -> dict:
    versions = sample["versions"] if sample else {}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "blas_env": dict(BLAS_PIN),
    }


def _span_table(sample: dict) -> dict:
    table = {}
    for name, span in sample["spans"].items():
        durations = span["durations_s"]
        table[name] = {
            "self_s": span["self_s"],
            "calls": span["calls"],
            "p50_s": statistics.median(durations),
            "tail_s": tail_percentile(durations),
        }
    return table


def suite(args, bench: dict, spec: dict) -> int:
    """``repetitions`` timed runs of every workload, then one traced
    repetition each.  ``--smoke`` makes it one timed run of one repetition."""
    names = list(spec["workloads"])
    passes = 1 if args.smoke else spec["repetitions"]
    seconds = 0.0 if args.smoke else args.seconds
    definitions = {n: workload_spec(spec, n, smoke=args.smoke) for n in names}
    runs: dict[str, list] = {n: [] for n in names}
    plain: dict[str, list] = {n: [] for n in names}
    errors: dict[str, list] = {n: [] for n in names}
    traced: dict[str, dict] = {}
    # round-robin, so drift in the machine's speed hits every workload alike
    for _ in range(passes):
        for name in names:
            samples, failed = timed_run(definitions[name], args.seed,
                                        seconds, False)
            errors[name] += failed
            plain[name] += samples
            if samples:
                runs[name].append(reduce_run(samples))
    for name in names:
        sample = run_repetition(definitions[name], args.seed, True,
                                RUN_BUDGET_S)
        if "error" in sample:
            errors[name].append(sample)
        else:
            traced[name] = sample

    references = {} if args.smoke else spec["references"].get(str(args.seed), {})
    record = {
        "host": host_facts(next(iter(itertools.chain(*plain.values())), None)),
        "seed": args.seed,
        "smoke": args.smoke,
        "timed_runs": passes,
        "seconds": seconds,
        "workloads": {},
    }
    fingerprints = {}
    all_problems = []
    for name in names:
        samples = plain[name] + ([traced[name]] if name in traced else [])
        problems = [f"repetition failed: {e['error']}" for e in errors[name]]
        problems += failed_checks(samples)
        fingerprint = samples[0]["fingerprint"] if samples else None
        fingerprints[name] = fingerprint
        if name in references and fingerprint != references[name]:
            problems.append(
                f"fingerprint {fingerprint} != reference {references[name]}"
            )
        entry = {
            "definition": definitions[name],
            "fingerprint": fingerprint,
            "samples": [
                {"traced": s["traced"], "setup": s["setup"],
                 "run_wall_s": s["run_wall_s"], "cpu": s["cpu"], "speed": s["speed"],
                 **{m: fn(s) for m, fn in END_TO_END.items()}}
                for s in samples
            ],
            "runs": runs[name],
            "end_to_end": {
                m: summarise([run[m] for run in runs[name]])
                for m in END_TO_END
            } if runs[name] else {},
        }
        entry["attempted"], entry["failed"] = operations(
            definitions[name], samples, errors[name]
        )
        for key in ("final_accuracy", "wire_bytes", "events", "scheduled"):
            if samples and key in samples[0]:
                entry[key] = samples[0][key]
        if name in traced and plain[name]:
            layers = dict(traced[name]["layers"])
            layers["obs.traced_over_untraced"] = traced_over_untraced(
                [traced[name]], plain[name]
            )
            entry["per_layer"] = layers
            entry["spans"] = _span_table(traced[name])
            entry["traced_run_wall_s"] = traced[name]["run_wall_s"]
            entry["unattributed_s"] = traced[name]["unattributed_s"]
            entry["worker_busy_s"] = traced[name]["worker_busy_s"]
        entry["problems"] = problems
        all_problems += [f"{name}: {p}" for p in problems]
        record["workloads"][name] = entry
    for left, right in spec["cross_checks"]:
        if fingerprints.get(left) != fingerprints.get(right):
            all_problems.append(
                f"{left} fingerprint {fingerprints.get(left)} != "
                f"{right} fingerprint {fingerprints.get(right)}"
            )
    record["fingerprints"] = fingerprints
    record["problems"] = all_problems
    record["correct"] = not all_problems
    print_suite(record, bench)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for problem in all_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if record["correct"] else 1


def print_suite(record: dict, bench: dict) -> None:
    units = {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}
    host = record["host"]
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} blas={host['blas_env']}")
    for name, entry in record["workloads"].items():
        print(f"\n== {name}  fingerprint={entry['fingerprint']}  "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for metric, stats in entry["end_to_end"].items():
            print(f"  {metric:<28} {stats['median']:>12.6g} {units[metric]:<7} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}] n={stats['n']}")
        for metric, value in sorted(entry.get("per_layer", {}).items()):
            print(f"  {metric:<28} {value:>12.6g} {units[metric]}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, bench: dict) -> int:
    base, new = load_json(Path(path_a)), load_json(Path(path_b))
    rows = []
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            a = [run[key] for run in entry["runs"]]
            b = [run[key] for run in other["runs"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append((
                name, key, metric["unit"],
                f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                f"{100 * (qb[1] - qa[1]) / qa[1]:+.1f}%",
                f"{100 * metric['bound']:.0f}%",
                verdict(a, b, metric["better"], metric["bound"]),
            ))
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    bench, spec = benchmark_definition(), spec_definition()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench_e2e.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], bench)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec["workloads"]),
                        help="measure one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, and a suite of one repetition per "
                             "workload; reference fingerprints unchecked")
    parser.add_argument("--out", help="suite record to write (JSON)")
    args = parser.parse_args(argv)
    # a terminated harness unwinds, so the running repetition is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload:
        return measure(args, bench, spec)
    return suite(args, bench, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
