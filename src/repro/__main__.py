"""Command-line entry point: ``python -m repro <command>``.

Commands:

- ``demo``          -- the quickstart grant/deny walkthrough;
- ``figures``       -- print the Figure 1-4/6 protocol traces;
- ``table1``        -- regenerate Table I (accepts ``--scale``/``--repeats``);
- ``usability``     -- run the V-B study (accepts ``--seed``);
- ``longterm``      -- run the V-D study (accepts ``--days``/``--seed``);
- ``fleet``         -- run a study over a sharded *population* of simulated
  machines/users on a multiprocessing worker pool (``--machines``/
  ``--users``/``--workers``/``--resume``); aggregate output is
  byte-identical for any worker count;
- ``redteam``       -- run the adversarial campaign corpus (six attack
  families scored as false-grant / false-deny / detection rates;
  ``--families``/``--trials``/``--workers``) or, with ``--sweep delta`` /
  ``--sweep visibility``, the security/usability parameter sweep as ROC
  curve data; ``--json`` output is byte-identical for any worker count;
- ``applicability`` -- run the V-C sweep;
- ``report``        -- regenerate the full evaluation report;
- ``trace``         -- replay the quickstart with tracing on and print the
  decision-path report (``--tree`` adds the raw span forest,
  ``--counters`` the cross-layer counter table);
- ``profile``       -- cProfile a hot-path scenario and print per-span
  timings (``--ops``/``--top``/``--no-spans``); see
  :mod:`repro.analysis.profiling`.
- ``serve``         -- run the long-lived multi-tenant permission daemon
  over UNIX and/or TCP sockets (``--unix``/``--tcp``/``--max-pending``/
  ``--batch-limit``/``--max-frame``); see :mod:`repro.service`.

Every command exits 141 (the conventional ``128 + SIGPIPE``) when its
output pipe closes early -- ``python -m repro redteam --json | head``
must not traceback.
"""

from __future__ import annotations

import argparse
from typing import Any, List, Optional


class _FleetHelpFormatter(argparse.HelpFormatter):
    """Lists the registered studies, importing the fleet only for ``--help``."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        if action.dest != "study":
            return action.help
        from repro.fleet import study_names

        return f"{action.help} ({', '.join(study_names())})"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Overhaul (DSN 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="quickstart walkthrough")
    sub.add_parser("figures", help="figure protocol traces")
    sub.add_parser("applicability", help="Section V-C sweep")

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--scale", type=float, default=1.0)
    table1.add_argument("--repeats", type=int, default=10)
    table1.add_argument("--json", action="store_true", help="machine-readable output")

    usability = sub.add_parser("usability", help="Section V-B study")
    usability.add_argument("--seed", type=int, default=2016)
    usability.add_argument("--json", action="store_true", help="machine-readable output")

    longterm = sub.add_parser("longterm", help="Section V-D study")
    longterm.add_argument("--days", type=int, default=21)
    longterm.add_argument("--seed", type=int, default=2016)
    longterm.add_argument("--json", action="store_true", help="machine-readable output")

    fleet = sub.add_parser(
        "fleet", help="sharded population run of a study",
        formatter_class=_FleetHelpFormatter,
    )
    fleet.add_argument("study", help="study to shard")
    fleet.add_argument("--machines", type=int, default=16, help="longterm population")
    fleet.add_argument("--users", type=int, default=None, help="usability population")
    fleet.add_argument("--days", type=int, default=21, help="days per longterm machine")
    fleet.add_argument("--seed", type=int, default=2016)
    fleet.add_argument("--workers", type=int, default=None, help="default: CPU count")
    fleet.add_argument(
        "--resume", metavar="DIR", default=None,
        help="checkpoint spool directory; an interrupted run restarted with "
        "the same DIR re-executes only unfinished shards",
    )
    fleet.add_argument("--timeout", type=float, default=300.0, help="per-shard seconds")
    fleet.add_argument("--retries", type=int, default=2, help="retries per failing shard")
    fleet.add_argument(
        "--shard-size", type=int, default=None,
        help="users per shard for user-sharded studies (usability, synthetic)",
    )
    fleet.add_argument(
        "--straggler-every", type=int, default=None,
        help="synthetic study: every Nth shard sleeps --straggler-ms",
    )
    fleet.add_argument(
        "--straggler-first", type=int, default=None,
        help="synthetic study: the first N shards each sleep --straggler-ms "
        "(clusters the stragglers at the head of the queue)",
    )
    fleet.add_argument(
        "--straggler-ms", type=float, default=None,
        help="synthetic study: straggler sleep in milliseconds",
    )
    fleet.add_argument("--json", action="store_true", help="print the aggregate as JSON")

    redteam = sub.add_parser("redteam", help="adversarial campaign corpus")
    redteam.add_argument(
        "--families", default=None,
        help="comma-separated family slice (default: the whole corpus)",
    )
    redteam.add_argument("--trials", type=int, default=8, help="trials per scenario")
    redteam.add_argument("--seed", type=int, default=2016)
    redteam.add_argument("--workers", type=int, default=1)
    redteam.add_argument(
        "--no-baseline", action="store_true",
        help="skip the unprotected viability arm",
    )
    redteam.add_argument(
        "--sweep", choices=("delta", "visibility"), default=None,
        help="sweep a parameter instead of running the corpus",
    )
    redteam.add_argument("--json", action="store_true", help="canonical JSON output")

    report = sub.add_parser("report", help="full evaluation report")
    report.add_argument("--full", action="store_true")

    trace = sub.add_parser("trace", help="traced quickstart decision-path report")
    trace.add_argument("--tree", action="store_true", help="also print the span forest")
    trace.add_argument("--counters", action="store_true", help="also print counters")

    profile = sub.add_parser("profile", help="cProfile a hot-path scenario")
    profile.add_argument(
        "scenario",
        help="decision-path, device-access, clipboard, screen-capture, "
        "shared-memory, or quickstart",
    )
    profile.add_argument("--ops", type=int, default=0, help="op count (0: scenario default)")
    profile.add_argument("--top", type=int, default=25, help="cProfile rows to print")
    profile.add_argument("--no-spans", action="store_true",
                         help="skip the traced per-span pass")

    serve = sub.add_parser("serve", help="multi-tenant permission service daemon")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="UNIX socket path to listen on")
    serve.add_argument("--tcp", metavar="HOST:PORT", default=None,
                       help="TCP address to listen on (port 0: kernel-assigned)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="per-connection in-flight budget before RETRY_LATER")
    serve.add_argument("--batch-limit", type=int, default=512,
                       help="max requests coalesced into one core pass")
    serve.add_argument("--max-frame", type=int, default=64 * 1024,
                       help="max frame body bytes before FRAME_TOO_LARGE")
    serve.add_argument("--max-tenants", type=int, default=1024,
                       help="tenant partition table bound (with --shard-workers: "
                            "per worker)")
    serve.add_argument("--shard-workers", type=int, default=0, metavar="N",
                       help="shard tenants across N worker processes behind "
                            "this front end (0: single in-process daemon)")
    serve.add_argument("--snapshot-dir", metavar="DIR", default=None,
                       help="persist tenant snapshots here on drain and "
                            "restore them on start (warm restart)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return _exit_broken_pipe()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "demo":
        run_demo()
        return 0
    if args.command == "figures":
        from repro.workloads.scenarios import all_figure_scenarios

        for trace in all_figure_scenarios():
            print(trace.render())
            print()
        return 0
    if args.command == "table1":
        import json

        from repro.analysis.tables import measure_table_i

        table = measure_table_i(scale=args.scale, repeats=args.repeats)
        if args.json:
            print(json.dumps(table.to_dict(), sort_keys=True, indent=2))
        else:
            print(table.render())
        return 0
    if args.command == "usability":
        import json

        from repro.workloads.usability import run_usability_study

        study = run_usability_study(seed=args.seed)
        if args.json:
            print(json.dumps(study.to_dict(), sort_keys=True, indent=2))
        else:
            print(study.render())
        return 0
    if args.command == "longterm":
        import json

        from repro.workloads.longterm import run_comparison

        comparison = run_comparison(seed=args.seed, days=args.days)
        if args.json:
            payload = {name: results.to_dict() for name, results in comparison.items()}
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for results in comparison.values():
                print(results.render())
                print()
        return 0
    if args.command == "fleet":
        return run_fleet_command(args)
    if args.command == "redteam":
        return run_redteam_command(args)
    if args.command == "applicability":
        from repro.workloads.app_catalog import run_applicability_sweep

        print(run_applicability_sweep().render())
        return 0
    if args.command == "trace":
        from repro.obs import collect_counters, render_decision_report, run_traced_quickstart

        machine = run_traced_quickstart()
        print(render_decision_report(machine))
        if args.tree:
            print()
            print(machine.tracer.render_tree())
        if args.counters:
            print()
            print(collect_counters(machine).render())
        return 0
    if args.command == "profile":
        from repro.analysis.profiling import run_profile

        return run_profile(
            args.scenario, ops=args.ops, top=args.top, spans=not args.no_spans
        )
    if args.command == "report":
        from repro.analysis.report import build_report

        print(
            build_report(
                table_scale=2.0 if args.full else 0.5,
                longterm_days=21 if args.full else 5,
            )
        )
        return 0
    if args.command == "serve":
        return run_serve_command(args)
    return 1  # pragma: no cover


def _exit_broken_pipe() -> int:
    """Finish a pipe-closed-early run without a traceback.

    The reader (``| head``) is gone; nothing more can be said on stdout.
    Note it on stderr, point stdout's fd at devnull so the interpreter's
    exit-time flush of the dead pipe stays quiet, and exit with the
    conventional 128 + SIGPIPE status.
    """
    import os
    import sys

    try:
        sys.stderr.write("repro: output pipe closed early\n")
        sys.stderr.flush()
    except (OSError, ValueError):  # pragma: no cover - stderr gone too
        pass
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError, AttributeError):
        pass  # no real stdout fd (e.g. captured streams); nothing to silence
    return 141


def run_serve_command(args: argparse.Namespace) -> int:
    """Drive one ``python -m repro serve`` invocation."""
    import asyncio
    import sys

    from repro.service import PermissionService, ServiceDaemon, WorkerPool

    if args.unix is None and args.tcp is None:
        print("serve: pass --unix PATH and/or --tcp HOST:PORT", file=sys.stderr)
        return 2
    tcp_host: Optional[str] = None
    tcp_port = 0
    if args.tcp is not None:
        host, sep, port = args.tcp.rpartition(":")
        if not sep or not host or not port.isdigit():
            print(f"serve: --tcp wants HOST:PORT, got {args.tcp!r}", file=sys.stderr)
            return 2
        tcp_host, tcp_port = host, int(port)

    async def body() -> None:
        if args.shard_workers > 0:
            backend: Any = WorkerPool(args.shard_workers, max_tenants=args.max_tenants)
        else:
            backend = PermissionService(
                max_tenants=args.max_tenants,
                journal=args.snapshot_dir is not None,
            )
        daemon = ServiceDaemon(
            backend,
            unix_path=args.unix,
            tcp_host=tcp_host,
            tcp_port=tcp_port,
            max_pending=args.max_pending,
            batch_limit=args.batch_limit,
            max_frame=args.max_frame,
            snapshot_dir=args.snapshot_dir,
        )
        await daemon.start()
        listeners = []
        if args.unix is not None:
            listeners.append(f"unix:{args.unix}")
        if tcp_host is not None:
            listeners.append(f"tcp:{tcp_host}:{daemon.tcp_port}")
        # The ready line is load-bearing: scripts wait for it before
        # connecting, and it is where a --tcp 0 port gets announced.
        print(f"overhaul service ready on {' '.join(listeners)}", flush=True)
        await daemon.run_until_signalled()
        print("overhaul service drained", flush=True)

    asyncio.run(body())
    return 0


def run_fleet_command(args: argparse.Namespace) -> int:
    """Drive one ``python -m repro fleet <study>`` invocation."""
    import os
    import sys

    from repro.fleet import FleetError, run_fleet, study_names

    if args.study not in study_names():
        print(
            f"unknown study {args.study!r}; available: {', '.join(study_names())}",
            file=sys.stderr,
        )
        return 2

    params = {}
    if args.study == "longterm":
        population = args.machines
        params["days"] = args.days
    else:  # usability-style studies shard a population of users
        population = args.users if args.users is not None else args.machines
        if args.shard_size is not None:
            params["shard_size"] = args.shard_size
    if args.study == "synthetic":
        for name in ("straggler_every", "straggler_first", "straggler_ms"):
            value = getattr(args, name)
            if value is not None:
                params[name] = value
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)

    try:
        report = run_fleet(
            args.study,
            population=population,
            seed=args.seed,
            workers=workers,
            params=params,
            spool_dir=args.resume,
            timeout_seconds=args.timeout,
            max_retries=args.retries,
        )
    except FleetError as error:
        print(f"fleet error: {error}", file=sys.stderr)
        return 2

    if args.json:
        # Canonical aggregate only -- byte-identical across worker counts.
        sys.stdout.write(report.aggregate_json())
    else:
        print(report.render())
        print()
        import json

        print(json.dumps(report.aggregate, sort_keys=True, indent=2))
    return 0 if not report.quarantined else 3


def run_redteam_command(args: argparse.Namespace) -> int:
    """Drive one ``python -m repro redteam`` invocation."""
    import sys

    if args.sweep is not None:
        from repro.redteam.sweeps import sweep_delta, sweep_visibility

        sweep = sweep_delta if args.sweep == "delta" else sweep_visibility
        result = sweep(trials=args.trials, seed=args.seed)
        if args.json:
            sys.stdout.write(result.to_json())
        else:
            print(result.render())
        return 0

    from repro.fleet import FleetError, run_fleet

    params = {"baseline": 0 if args.no_baseline else 1}
    if args.families:
        params["families"] = args.families
    try:
        # Campaigns always ride the fleet engine (even --workers 1) so the
        # --json aggregate is the one byte-stable serialisation CI diffs
        # across worker counts.
        report = run_fleet(
            "redteam",
            population=args.trials,
            seed=args.seed,
            workers=args.workers,
            params=params,
        )
    except (FleetError, KeyError) as error:
        print(f"redteam error: {error}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.aggregate_json())
    else:
        from repro.redteam.engine import CampaignReport, ScenarioScore

        campaign = CampaignReport(seed=args.seed, trials=args.trials)
        campaign.scores = [
            ScenarioScore(
                scenario=entry["scenario"],
                family=entry["family"],
                trials=entry["trials"],
                false_grants=entry["false_grant"]["successes"],
                blocked=entry["detection"]["trials"],
                detected_blocked=entry["detection"]["successes"],
                benign_trials=entry["false_deny"]["trials"],
                benign_denials=entry["false_deny"]["successes"],
                baseline_trials=entry["baseline_success"]["trials"],
                baseline_successes=entry["baseline_success"]["successes"],
            )
            for entry in report.aggregate["scenarios"]
        ]
        print(campaign.render())
    violations = report.aggregate.get("violations", {})
    return 3 if violations else 0


def run_demo() -> None:
    """The quickstart flow, inline (keeps `repro demo` dependency-free)."""
    from repro import Machine
    from repro.apps import AudioRecorder, Spyware
    from repro.kernel.errors import OverhaulDenied
    from repro.sim.time import from_seconds

    machine = Machine.with_overhaul()
    recorder = AudioRecorder(machine)
    spy = Spyware(machine)
    machine.settle()
    print("spyware mic attempt ->", spy.attempt_microphone())
    recorder.click_record()
    print("recorder after click ->", len(recorder.capture_samples(16)), "bytes")
    recorder.stop_recording()
    machine.run_for(from_seconds(2.5))
    try:
        recorder.start_recording()
    except OverhaulDenied as error:
        print("after expiry ->", error)
    print("alerts shown:", machine.xserver.overlay.total_shown)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
