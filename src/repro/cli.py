"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      train one method on one dataset and print its metrics;
``trace``    ``run`` with telemetry forced on: same arguments, plus a
             Perfetto-loadable trace and metrics snapshot written under
             ``--telemetry`` (default ``telemetry/``);
``figure``   regenerate a paper table/figure (fig4 ... fig10, table1,
             ablations);
``simulate`` run the event-driven population simulator (no training):
             arrival/churn scheduling throughput at up to millions of
             simulated clients;
``search``   the SVHN hyperparameter search for FedKNOW (Section V-B);
``serve``    start a long-lived socket federation service and drive rounds
             over whatever workers connect;
``worker``   connect a worker process to a running ``repro serve`` (or any
             listening socket engine) and serve phases until released;
``list``     enumerate available methods / datasets / models / figures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import ALL_SPECS, available_scenarios, create_scenario, get_spec
from .edge import jetson_cluster, jetson_raspberry_cluster
from .experiments import (
    format_series,
    format_table,
    get_preset,
    run_aggregation_ablation,
    run_distance_ablation,
    run_fig4,
    run_fig5,
    run_fig5_wire,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig_curvature,
    run_fig_eventsim,
    run_fig_scaling,
    run_fig_scenarios,
    run_k_ablation,
    run_qp_ablation,
    run_single,
    run_table1,
)
from .experiments.search import search_fedknow
from .federated import ALL_METHODS
from .models import available_models

FIGURES = {
    "fig4": lambda preset: "\n\n".join(str(r) for r in run_fig4(preset=preset)),
    "fig4-hetero": lambda preset: "\n\n".join(
        str(r) for r in run_fig4(
            datasets=("cifar100", "fc100", "core50"),
            methods=("gem", "fedweit", "fedknow"),
            preset=preset,
            heterogeneous=True,
        )
    ),
    "table1": lambda preset: str(run_table1(preset=preset)),
    "fig5": lambda preset: str(run_fig5(preset=preset)),
    "fig5-wire": lambda preset: str(run_fig5_wire(preset=preset)),
    "fig6": lambda preset: str(run_fig6(preset=preset)),
    "fig7": lambda preset: str(run_fig7(preset=preset, num_tasks=6)),
    "fig8": lambda preset: str(run_fig8(preset=preset)),
    "fig8-sampled": lambda preset: str(
        run_fig8(preset=preset, participation="sampled:0.5")
    ),
    "fig9": lambda preset: str(run_fig9(preset=preset)),
    "fig10": lambda preset: str(run_fig10(preset=preset)),
    "fig-scenarios": lambda preset: str(run_fig_scenarios(preset=preset)),
    "fig-curvature": lambda preset: str(run_fig_curvature(preset=preset)),
    "fig-scaling": lambda preset: str(run_fig_scaling(preset=preset)),
    "fig-eventsim": lambda preset: str(run_fig_eventsim(preset=preset)),
    "ablations": lambda preset: "\n\n".join(
        str(fn(preset=preset))
        for fn in (
            run_distance_ablation,
            run_k_ablation,
            run_qp_ablation,
            run_aggregation_ablation,
        )
    ),
}


def _add_run_arguments(run_p: argparse.ArgumentParser,
                       telemetry_default: str | None = None) -> None:
    """The ``run`` argument set, shared verbatim by ``trace``."""
    run_p.add_argument("--method", required=True, choices=sorted(ALL_METHODS))
    run_p.add_argument("--dataset", required=True, choices=sorted(ALL_SPECS))
    run_p.add_argument("--preset", default="bench",
                       choices=("unit", "bench", "paper"))
    run_p.add_argument("--clients", type=int, default=None)
    run_p.add_argument("--tasks", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--engine", default="serial",
                       help="round engine: 'serial', 'thread[:W]' — W "
                            "threads of concurrent client execution — "
                            "'batched[:B]' — B clients stacked per "
                            "captured-graph replay — or 'socket[:W]' — W "
                            "socket-connected worker processes with sticky "
                            "client affinity (identical metrics, faster "
                            "wall clock)")
    run_p.add_argument("--shards", type=int, default=1,
                       help="partition each round's aggregation across this "
                            "many streaming shard accumulators (identical "
                            "global states; per-shard counts land on the "
                            "round records)")
    run_p.add_argument("--scenario", default="class-inc",
                       help="data scenario family: 'class-inc' (the paper's "
                            "setup), 'domain-inc[:drift=R]', "
                            "'label-shift:dirichlet:A', 'blurry[:overlap=R]', "
                            "or 'async-arrival'")
    run_p.add_argument("--selector", default=None,
                       help="signature-knowledge scoring rule for the "
                            "extracting methods: 'magnitude' (the paper's "
                            "top-|w| rule), 'fisher' (diagonal-Fisher "
                            "saliency F*w^2), or 'hybrid:<mix>' (a convex "
                            "blend; mix in [0,1] weights fisher); default: "
                            "the method's own default")
    run_p.add_argument("--participation", default="full",
                       help="participation policy: 'full', "
                            "'sampled:<fraction>' (a random fraction of "
                            "clients trains each round), "
                            "'deadline:<seconds>' (stragglers aggregate next "
                            "round at staleness-discounted weight), or "
                            "'deadline:auto[:<slack>]' (per-client deadlines "
                            "drawn from each device's network link)")
    run_p.add_argument("--deadline", type=float, default=None,
                       help="shorthand for --participation deadline:<seconds>")
    run_p.add_argument("--max-staleness", type=int, default=None,
                       help="bound on straggler carry for deadline policies: "
                            "updates pending more than K rounds are evicted "
                            "(shorthand for a ',max=K' participation option; "
                            "default 1, the one-round carry)")
    run_p.add_argument("--population", default=None,
                       help="arrival/churn process for the event-driven "
                            "trainer: 'fixed[,churn=ON/OFF]', 'uniform:<T>', "
                            "'pareto:<alpha>[,scale=S][,churn=ON/OFF]', or "
                            "'lognormal:<sigma>...'; clients join and leave "
                            "in virtual time (default: the synchronous "
                            "fixed-roster trainer)")
    run_p.add_argument("--wire", default="v1", choices=("v1", "v2"),
                       help="negotiated wire-format version: v1 (dense/"
                            "sparse records) or v2 (adds delta encoding, "
                            "per-entry flags and fp16 payloads)")
    run_p.add_argument("--upload", default="dense",
                       choices=("dense", "delta", "sparse"),
                       help="upload policy: full states, top-k deltas vs "
                            "the previous global state, or top-k signature "
                            "values (delta/sparse engage after warmup)")
    run_p.add_argument("--upload-ratio", type=float, default=0.1,
                       help="fraction of entries kept by delta/sparse "
                            "uploads (the paper's rho; default 0.1)")
    run_p.add_argument("--fp16", action="store_true",
                       help="ship float payload values as float16 "
                            "(requires --wire v2; lossy)")
    run_p.add_argument("--with-raspberry-pi", action="store_true",
                       help="use the 30-device heterogeneous cluster")
    run_p.add_argument("--telemetry", metavar="DIR", default=telemetry_default,
                       help="enable tracing for the run and write the "
                            "telemetry exports (spans.jsonl, trace.json, "
                            "metrics.prom, metrics.json, result.json) "
                            "under DIR")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedKNOW (ICDE 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one method on one dataset")
    _add_run_arguments(run_p)

    trace_p = sub.add_parser(
        "trace",
        help="`run` with telemetry forced on (Perfetto trace + metrics "
             "snapshot written under --telemetry, default 'telemetry/')",
    )
    _add_run_arguments(trace_p, telemetry_default="telemetry")

    fig_p = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.add_argument("--preset", default="bench",
                       choices=("unit", "bench", "paper"))

    sim_p = sub.add_parser(
        "simulate",
        help="event-driven population simulation (scheduling only, "
             "no model training)",
    )
    sim_p.add_argument("--clients", type=int, default=100_000,
                       help="simulated population size (default 100000)")
    sim_p.add_argument("--population", default="pareto:1.5",
                       help="arrival/churn spec, e.g. "
                            "'pareto:1.5,scale=0.001,churn=60/120' "
                            "(default pareto:1.5)")
    sim_p.add_argument("--rounds", type=int, default=10)
    sim_p.add_argument("--shards", type=int, default=16,
                       help="shard-local staleness cut-offs partition the "
                            "population into this many reporting shards")
    sim_p.add_argument("--max-staleness", type=int, default=2,
                       help="uploads later than this many of their shard's "
                            "round closes are evicted (default 2)")
    sim_p.add_argument("--deadline", default="auto",
                       help="'auto' (slack x each client's own nominal round "
                            "time) or a fixed per-round budget in seconds")
    sim_p.add_argument("--slack", type=float, default=1.5,
                       help="deadline slack multiplier under --deadline auto")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--telemetry", metavar="DIR", default=None,
                       help="enable tracing for the simulation and write "
                            "the telemetry exports under DIR")

    search_p = sub.add_parser("search", help="FedKNOW rho x k search on SVHN")
    search_p.add_argument("--preset", default="bench",
                          choices=("unit", "bench", "paper"))

    serve_p = sub.add_parser(
        "serve",
        help="long-lived socket federation service: listens for "
             "`repro worker` connections and serves aggregation rounds",
    )
    serve_p.add_argument("--method", default="fedavg",
                         choices=sorted(ALL_METHODS))
    serve_p.add_argument("--dataset", default="cifar100",
                         choices=sorted(ALL_SPECS))
    serve_p.add_argument("--preset", default="bench",
                         choices=("unit", "bench", "paper"))
    serve_p.add_argument("--clients", type=int, default=None)
    serve_p.add_argument("--tasks", type=int, default=None)
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--workers", type=int, default=2,
                         help="worker connections to wait for before the "
                              "first round (later joiners are admitted at "
                              "round boundaries)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="listening port (0 binds an ephemeral port; "
                              "the bound address is printed at startup)")
    serve_p.add_argument("--shards", type=int, default=1,
                         help="shard aggregation across this many segment "
                              "groups; eligible segment partials are "
                              "accumulated on the workers that retained the "
                              "round's updates")
    serve_p.add_argument("--participation", default=None,
                         help="participation policy spec (see `repro run`)")
    serve_p.add_argument("--transport", default=None,
                         help="transport spec, e.g. 'v1:dense' or "
                              "'v2:delta:0.1' (see `repro run`)")
    serve_p.add_argument("--scenario", default="class-inc")
    serve_p.add_argument("--timeout", type=float, default=60.0,
                         help="seconds to wait for --workers connections")
    serve_p.add_argument("--telemetry", metavar="DIR", default=None,
                         help="enable tracing for the service and write "
                              "the telemetry exports under DIR")

    worker_p = sub.add_parser(
        "worker",
        help="connect a worker process to a running `repro serve`",
    )
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="address printed by `repro serve`")
    worker_p.add_argument("--retries", type=int, default=10,
                          help="connection attempts before giving up "
                               "(exponential backoff between attempts)")
    worker_p.add_argument("--assume-remote", action="store_true",
                          help="skip the shared-tmpfs probe and take framed "
                               "state broadcasts even on the server's host")

    sub.add_parser("list", help="list methods, datasets, models and figures")
    return parser


def _cmd_run(args) -> int:
    preset = get_preset(args.preset)
    if args.clients is not None:
        preset = preset.updated(num_clients=args.clients)
    if args.tasks is not None:
        preset = preset.updated(num_tasks=args.tasks)
    cluster = (
        jetson_raspberry_cluster() if args.with_raspberry_pi else jetson_cluster()
    )
    if args.deadline is not None and args.participation != "full":
        print("error: --deadline conflicts with --participation "
              f"{args.participation!r}; pass one or the other",
              file=sys.stderr)
        return 2
    participation = (
        f"deadline:{args.deadline:g}" if args.deadline is not None
        else args.participation
    )
    if args.max_staleness is not None:
        if not participation.startswith("deadline"):
            print("error: --max-staleness needs a deadline participation "
                  f"policy, got {participation!r}", file=sys.stderr)
            return 2
        if args.max_staleness < 1:
            print(f"error: --max-staleness must be >= 1, got "
                  f"{args.max_staleness}", file=sys.stderr)
            return 2
        participation += f",max={args.max_staleness}"
    if args.population is not None:
        try:
            from .edge import create_population

            create_population(args.population)
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"error: invalid --population: {message}", file=sys.stderr)
            return 2
    if args.fp16 and args.wire != "v2":
        print("error: --fp16 requires --wire v2", file=sys.stderr)
        return 2
    try:
        from .federated import create_engine

        engine = create_engine(args.engine)
        engine.close()
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: invalid --engine: {message}", file=sys.stderr)
        return 2
    reason = engine.rejects(args.method)
    if reason is not None:
        print(f"error: --engine {args.engine} cannot run {args.method!r}: "
              f"{reason}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    if not 0.0 < args.upload_ratio <= 1.0:
        print(f"error: --upload-ratio must be in (0, 1], got "
              f"{args.upload_ratio:g}", file=sys.stderr)
        return 2
    wire = args.wire + ("+fp16" if args.fp16 else "")
    transport = f"{wire}:{args.upload}"
    if args.upload != "dense":
        transport += f":{args.upload_ratio:g}"
    try:
        create_scenario(args.scenario)
    except (KeyError, ValueError) as error:
        # str(KeyError) is the repr of its argument; unwrap the message
        message = error.args[0] if error.args else error
        print(f"error: invalid --scenario: {message}", file=sys.stderr)
        return 2
    try:
        from .federated import resolve_selector

        resolve_selector(args.method, args.selector)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: invalid --selector: {message}", file=sys.stderr)
        return 2
    def execute():
        return run_single(
            args.method, get_spec(args.dataset), preset,
            cluster=cluster, seed=args.seed, use_cache=False,
            engine=args.engine,
            participation=participation, transport=transport,
            scenario=args.scenario, shards=args.shards,
            population=args.population, selector=args.selector,
        )

    exports = None
    if args.telemetry:
        from .metrics.io import save_result_with_telemetry
        from .obs import Telemetry

        with Telemetry(args.telemetry) as session:
            result = execute()
            exports = save_result_with_telemetry(
                result, session, args.telemetry
            )
    else:
        result = execute()
    stages = np.arange(1, len(result.accuracy_curve) + 1)
    print(format_series(
        f"{args.method} on {args.dataset} ({args.preset})",
        stages, np.round(result.accuracy_curve, 3),
        x_name="tasks", y_name="accuracy",
    ))
    print(format_series(
        "forgetting rate", stages, np.round(result.forgetting_curve, 3),
        x_name="tasks", y_name="rate",
    ))
    summary = result.summary()
    print(format_table(list(summary), [list(summary.values())]))
    if result.transport != "v1:dense":
        print(format_table(
            ["transport", "upload_gb", "raw_upload_gb", "compression"],
            [[
                result.transport,
                round(result.total_upload_bytes / 1e9, 4),
                round(result.total_raw_upload_bytes / 1e9, 4),
                f"{result.upload_compression:.2f}x",
            ]],
            title="transport (measured upload volume)",
        ))
    if (result.participation != "full"
            or result.total_evicted_clients
            or result.total_lost_clients):
        print(format_table(
            ["rounds", "planned", "reported", "stale", "evicted", "lost"],
            [[
                len(result.rounds),
                result.total_planned_clients,
                result.total_reported_clients,
                result.total_stale_clients,
                result.total_evicted_clients,
                result.total_lost_clients,
            ]],
            title="participation (client-rounds)",
        ))
    if exports is not None:
        print(f"telemetry written under {args.telemetry}: "
              + ", ".join(sorted(str(p) for p in exports.values())))
    return 0


def _cmd_simulate(args) -> int:
    from .federated import PopulationSimulator

    if args.clients < 1:
        print(f"error: --clients must be >= 1, got {args.clients}",
              file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    if args.max_staleness < 1:
        print(f"error: --max-staleness must be >= 1, got "
              f"{args.max_staleness}", file=sys.stderr)
        return 2
    deadline: float | str = args.deadline
    if deadline != "auto":
        try:
            deadline = float(deadline)
        except ValueError:
            print(f"error: --deadline must be 'auto' or a number, got "
                  f"{args.deadline!r}", file=sys.stderr)
            return 2
    try:
        simulator = PopulationSimulator(
            args.clients,
            population=args.population,
            num_rounds=args.rounds,
            shards=args.shards,
            max_staleness=args.max_staleness,
            deadline=deadline,
            slack=args.slack,
            seed=args.seed,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.telemetry:
        from .obs import Telemetry

        with Telemetry(args.telemetry) as session:
            report = simulator.run()
            paths = session.flush()
        print("telemetry written under "
              f"{args.telemetry}: "
              + ", ".join(sorted(str(p) for p in paths.values())))
    else:
        report = simulator.run()
    print(report)
    rows = [
        [r.round_index, round(r.open_seconds, 2), round(r.close_seconds, 2),
         r.active, r.planned, r.reported, r.stale, r.evicted, r.lost,
         "yes" if r.skipped else ""]
        for r in report.rounds
    ]
    print(format_table(
        ["round", "open_s", "close_s", "active", "planned", "reported",
         "stale", "evicted", "lost", "skipped"],
        rows,
        title="per-round serving",
    ))
    return 0


def _cmd_serve(args) -> int:
    from .serve import FederationServer, RpcError

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    server = FederationServer(
        args.method, args.dataset, args.preset,
        num_workers=args.workers, host=args.host, port=args.port,
        clients=args.clients, tasks=args.tasks, seed=args.seed,
        shards=args.shards, participation=args.participation,
        transport=args.transport, scenario=args.scenario,
    )
    try:
        host, port = server.address
        print(f"serving {args.method} on {args.dataset} ({args.preset}) "
              f"at {host}:{port}")
        print(f"attach workers with: repro worker --connect {host}:{port}")
        try:
            server.wait_for_workers(timeout=args.timeout)
        except RpcError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.telemetry:
            from .metrics.io import save_result_with_telemetry
            from .obs import Telemetry

            with Telemetry(args.telemetry) as session:
                result = server.run()
                exports = save_result_with_telemetry(
                    result, session, args.telemetry
                )
            print(f"telemetry written under {args.telemetry}: "
                  + ", ".join(sorted(str(p) for p in exports.values())))
        else:
            result = server.run()
        stages = np.arange(1, len(result.accuracy_curve) + 1)
        print(format_series(
            f"{args.method} on {args.dataset} ({args.preset})",
            stages, np.round(result.accuracy_curve, 3),
            x_name="tasks", y_name="accuracy",
        ))
        summary = result.summary()
        print(format_table(list(summary), [list(summary.values())]))
    finally:
        server.close()
    return 0


def _cmd_worker(args) -> int:
    from .serve import ConnectionClosed, RpcError, run_worker

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
        if not host:
            raise ValueError
    except ValueError:
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    try:
        worker_id = run_worker(
            host, port,
            attempts=args.retries,
            assume_remote=args.assume_remote,
        )
    except ConnectionClosed:
        # the server went away mid-session; the service survives worker
        # loss, so the symmetric exit is clean too
        print("server closed the connection", file=sys.stderr)
        return 0
    except (RpcError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"worker {worker_id} released by server")
    return 0


def _cmd_figure(args) -> int:
    print(FIGURES[args.name](get_preset(args.preset)))
    return 0


def _cmd_search(args) -> int:
    print(search_fedknow(preset=get_preset(args.preset)))
    return 0


def _cmd_list() -> int:
    from .curv.selector import SELECTOR_SPECS
    from .federated.engine import ENGINE_SPECS

    print(format_table(
        ["kind", "names"],
        [
            ["methods", ", ".join(sorted(ALL_METHODS))],
            ["datasets", ", ".join(sorted(ALL_SPECS))],
            ["engines", ", ".join(ENGINE_SPECS)],
            ["selectors", ", ".join(SELECTOR_SPECS)],
            ["scenarios", ", ".join(available_scenarios())],
            ["models", ", ".join(available_models())],
            ["figures", ", ".join(sorted(FIGURES))],
            ["presets", "unit, bench, paper"],
        ],
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "trace"):
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
