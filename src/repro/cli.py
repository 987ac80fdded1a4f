"""Command-line interface.

Four subcommands cover the common entry points::

    python -m repro run --config ARF-tid --workload mac --threads 4
    python -m repro report --scale tiny --workers 4 --output report.txt
    python -m repro prefetch --scale small --workers 0
    python -m repro sweep --scale tiny --topologies dragonfly mesh torus

``run`` simulates one (configuration, workload) pair and prints the headline
metrics; ``report`` regenerates the full evaluation (every table and figure);
``prefetch`` populates the persistent run cache so later reports and benchmark
sessions perform zero simulations; ``sweep`` runs the scheme x topology
cross product and renders the network-shape figure.  ``--workers 0`` means one
worker per CPU core.

The six memory-network flags the four subcommands share — shape
(``--topology``, ``--num-cubes``, ``--num-controllers``), fault injection
(``--failure-rate``, ``--failure-seed``) and ``--link-bandwidth`` — are
declared once, in :func:`_add_network_flags`.  Their dests are
:func:`~repro.system.config.make_network_config`'s keywords, so the flags
that were set pass straight through as one plain dict; an unset flag keeps
the Table 4.1 default.  ``sweep`` takes ``--num-controllers`` and
``--link-bandwidth`` as value lists that become sweep dimensions, and owns
plural ``--topologies``/``--num-cubes`` flags of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from .analysis import format_table
from .experiments import (FIGURES, SCALES, EvaluationSuite, default_cache_dir,
                          fig_topology, full_report)
from .network.topology import TOPOLOGY_BUILDERS
from .system import (CONFIG_ORDER, SystemKind, generate_program, make_system_config,
                     run_program)
from .system.config import make_network_config
from .workloads import ALL_WORKLOADS


#: Dests of the memory-network flags, which are also the keywords of
#: :func:`~repro.system.config.make_network_config`.
NETWORK_FLAGS = ("topology", "num_cubes", "num_controllers", "failure_rate",
                 "failure_seed", "link_bandwidth")


def _parse_workload_params(pairs: Sequence[str]) -> dict:
    """Parse ``key=value`` workload overrides (integers where possible)."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"repro: workload parameter {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _config_name(value: str) -> str:
    """Normalize a configuration name (``arf_tid`` -> ``ARF-tid``).

    argparse treats the raised ``ArgumentTypeError`` as a usage error, so
    unknown names still exit with the canonical list in the message.
    """
    try:
        return SystemKind.from_name(value).value
    except ValueError:
        canonical = ", ".join(k.value for k in CONFIG_ORDER)
        raise argparse.ArgumentTypeError(
            f"unknown configuration {value!r}; choose from {canonical} "
            f"(case- and underscore-insensitive)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active-Routing reproduction: run workloads or regenerate the evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    canonical_configs = ", ".join(k.value for k in CONFIG_ORDER)

    run_p = sub.add_parser("run", help="simulate one workload on one configuration")
    run_p.add_argument("--config", default="ARF-tid", type=_config_name,
                       metavar="CONFIG",
                       help="system configuration (Section 5.1 scheme); one of "
                            f"{canonical_configs} (case- and underscore-insensitive)")
    run_p.add_argument("--workload", default="mac", choices=sorted(ALL_WORKLOADS),
                       help="benchmark or microbenchmark to run")
    run_p.add_argument("--threads", type=int, default=4, help="number of worker threads")
    run_p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="workload size override (repeatable), e.g. array_elements=4096")
    _add_network_flags(run_p)

    report_p = sub.add_parser("report", help="regenerate every evaluation table and figure")
    report_p.add_argument("--scale", default="small", choices=sorted(SCALES),
                          help="problem-size scale")
    report_p.add_argument("--output", default=None,
                          help="optional path to also write the report to")
    report_p.add_argument("--figures", nargs="+", default=None,
                          choices=sorted(FIGURES), metavar="FIGURE",
                          help="render only these figures, in canonical report "
                               "order (default: the full report); one of "
                               f"{', '.join(sorted(FIGURES))}")
    report_p.add_argument("--skip-dynamic-offload", action="store_true",
                          help="skip the Figure 5.8 case study (extra simulations)")
    _add_network_flags(report_p)
    _add_suite_options(report_p)

    pre_p = sub.add_parser(
        "prefetch",
        help="run (and cache) every simulation the evaluation figures need")
    pre_p.add_argument("--scale", default="small", choices=sorted(SCALES),
                       help="problem-size scale")
    pre_p.add_argument("--figures", nargs="+", default=None,
                       choices=sorted(FIGURES), metavar="FIGURE",
                       help="restrict to these figures (default: all); one of "
                            f"{', '.join(sorted(FIGURES))}")
    pre_p.add_argument("--workloads", nargs="+", default=None,
                       choices=sorted(ALL_WORKLOADS), metavar="WORKLOAD",
                       help="restrict the suite to these workloads (default: all)")
    pre_p.add_argument("--prune", action="store_true",
                       help="garbage-collect the run cache first: drop orphaned "
                            ".tmp files and entries recorded under a stale code "
                            "digest, then prefetch as usual")
    _add_network_flags(pre_p)
    _add_suite_options(pre_p)

    sweep_p = sub.add_parser(
        "sweep",
        help="run the scheme x topology cross product and render the "
             "network-shape figure")
    sweep_p.add_argument("--scale", default="tiny", choices=sorted(SCALES),
                         help="problem-size scale")
    sweep_p.add_argument("--topologies", nargs="+",
                         default=list(fig_topology.SWEEP_TOPOLOGIES),
                         choices=sorted(TOPOLOGY_BUILDERS), metavar="TOPOLOGY",
                         help="memory-network topologies to sweep (default: "
                              f"{' '.join(fig_topology.SWEEP_TOPOLOGIES)}); one of "
                              f"{', '.join(sorted(TOPOLOGY_BUILDERS))}")
    sweep_p.add_argument("--num-cubes", dest="cube_counts", nargs="+", type=int,
                         default=list(fig_topology.SWEEP_CUBE_COUNTS), metavar="N",
                         help="cube counts to sweep (default: 16)")
    _add_network_flags(sweep_p, sweep=True)
    sweep_p.add_argument("--configs", nargs="+", type=_config_name,
                         default=["HMC", "ART", "ARF-tid", "ARF-addr"],
                         metavar="CONFIG",
                         help="HMC-backed schemes to sweep (default: all four); "
                              f"one of {canonical_configs}")
    sweep_p.add_argument("--workloads", nargs="+", default=None,
                         choices=sorted(ALL_WORKLOADS), metavar="WORKLOAD",
                         help="workloads to measure (default: "
                              f"{' '.join(fig_topology.SWEEP_WORKLOADS)})")
    sweep_p.add_argument("--output", default=None,
                         help="optional path to also write the figure to")
    _add_suite_options(sweep_p)
    return parser


def _add_network_flags(parser: argparse.ArgumentParser,
                       sweep: bool = False) -> None:
    """The memory-network flags, all defaulting to ``None`` (= unset).

    ``sweep`` has its own plural topology and cube-count flags, and takes
    the controller count and link bandwidth as value lists
    (``controller_counts``/``link_bandwidths``) that become sweep dimensions.
    """
    if not sweep:
        parser.add_argument(
            "--topology", default=None, choices=sorted(TOPOLOGY_BUILDERS),
            help="memory-network topology for every HMC-backed scheme "
                 "(default: Table 4.1 dragonfly); variant networks get their "
                 "own run-cache entries")
        parser.add_argument(
            "--num-cubes", default=None, type=int, metavar="N",
            help="memory-network cube count (default: 16); the topology is "
                 "built with exactly this many cubes or the request is "
                 "rejected up front")
        parser.add_argument(
            "--num-controllers", default=None, type=int, metavar="N",
            help="host-side memory-controller count (default: Table 4.1's 4)")
    else:
        parser.add_argument(
            "--num-controllers", dest="controller_counts", nargs="+",
            default=None, type=int, metavar="N",
            help="host-side memory-controller counts to sweep "
                 "(default: Table 4.1's 4)")
    parser.add_argument(
        "--failure-rate", default=None, type=float, metavar="RATE",
        help="expected random link failures per 10,000 cycles (default: "
             "0 = failure-free); routes recompute around failed links")
    parser.add_argument(
        "--failure-seed", default=None, type=int, metavar="SEED",
        help="seed of the deterministic failure timeline (default: 0); a "
             "fixed seed reproduces the exact same failures — and results "
             "— on every run")
    if not sweep:
        parser.add_argument(
            "--link-bandwidth", default=None, type=float,
            metavar="BYTES_PER_CYCLE",
            help="memory-network link bandwidth in bytes per CPU cycle "
                 "(default: Table 4.1's 12.5, i.e. 25 GB/s per direction)")
    else:
        parser.add_argument(
            "--link-bandwidth", dest="link_bandwidths", nargs="+",
            default=None, type=float, metavar="BYTES_PER_CYCLE",
            help="memory-network link bandwidths to sweep, in bytes per CPU "
                 "cycle (default: Table 4.1's 12.5, i.e. 25 GB/s per "
                 "direction)")


def _add_suite_options(parser: argparse.ArgumentParser) -> None:
    """Suite knobs shared by ``report``, ``prefetch`` and ``sweep``."""
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the (workload x config) suite; "
                             "0 means one per CPU core (each pair is an "
                             "independent simulation)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent run-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent run cache entirely")


def _make_suite(args: argparse.Namespace, network: dict,
                workloads: Optional[Sequence[str]] = None) -> EvaluationSuite:
    """The suite for one subcommand; ``network`` is the set network flags."""
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    net = None
    if network:
        with _usage_errors():
            net = make_network_config(**network)
    return EvaluationSuite(args.scale, workloads=workloads, workers=args.workers,
                           cache_dir=cache_dir, net=net)


@contextlib.contextmanager
def _usage_errors():
    """Turn ValueErrors from checking the request into clean CLI errors.

    An impossible ``--topology``/``--num-cubes`` request or a bad ``--param``
    is a usage mistake like an unknown ``--config``; the user gets the
    builder's actionable message, not a traceback.  Only the up-front checks
    run inside this; simulation errors keep their tracebacks.
    """
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def _cmd_run(args: argparse.Namespace, network: dict) -> int:
    params = _parse_workload_params(args.param)
    if args.config == "DRAM" and network:
        raise SystemExit("repro: network options (--topology, --num-cubes, "
                         "--num-controllers, --link-bandwidth, "
                         "--failure-rate, --failure-seed) have no effect on "
                         "the DRAM baseline (it has no memory network); pick "
                         "an HMC-backed configuration")
    with _usage_errors():
        config = make_system_config(args.config, **network)
    cores = config.cmp.num_cores
    if not 1 <= args.threads <= cores:
        raise SystemExit(f"repro: --threads must be between 1 and the {cores} "
                         f"cores of {config.label}, got {args.threads}")
    with _usage_errors():
        program = generate_program(config, args.workload, num_threads=args.threads,
                                   **params)
    result = run_program(config, program)
    rows = [
        ["cycles", f"{result.cycles:,.0f}"],
        ["instructions", f"{result.instructions:,d}"],
        ["IPC", f"{result.ipc:.3f}"],
        ["off-chip traffic", f"{result.total_data_bytes / 1024:.1f} KiB"],
        ["energy", f"{result.energy.total_j * 1e6:.2f} uJ"],
        ["power", f"{result.energy.power_w:.3f} W"],
        ["EDP", f"{result.energy.edp:.3e} J*s"],
    ]
    if config.kind.uses_hmc and config.hmc_net.failure_rate > 0:
        stats = result.network_stats
        rows.append(["hops interrupted", f"{stats['dropped']:,.0f}"])
        rows.append(["delivered traffic", f"{stats['delivered_fraction']:.4f}"])
    if result.mode == "active":
        rows.append(["update round-trip", f"{result.update_roundtrip:.0f} cycles"])
        checked, mismatched = result.flow_checks
        rows.append(["flows verified", f"{checked - mismatched}/{checked}"])
    print(f"{args.workload} on {config.label} ({args.threads} threads)")
    print(format_table(["metric", "value"], rows))
    return 0 if result.flows_verified else 1


def _cmd_report(args: argparse.Namespace, network: dict) -> int:
    suite = _make_suite(args, network)
    # full_report prefetches every required pair in one parallel batch; the
    # report itself goes to stdout only, so cold and warm runs are identical.
    report = full_report(suite, include_dynamic_offload=not args.skip_dynamic_offload,
                         figures=args.figures)
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
    return 0 if suite.verified() else 1


def _cmd_prefetch(args: argparse.Namespace, network: dict) -> int:
    suite = _make_suite(args, network, workloads=args.workloads)
    if args.prune:
        if suite.cache is None:
            raise SystemExit("repro: --prune needs the persistent run cache; "
                             "drop --no-cache")
        pruned = suite.cache.prune()
        print(f"pruned {suite.cache.root}: removed {pruned['tmp_removed']} orphaned "
              f"tmp files and {pruned['stale_removed']} stale entries "
              f"({pruned['kept']} kept)")
    stats = suite.prefetch(figures=args.figures)
    print(f"prefetch: {stats['pairs']} (workload x configuration) pairs "
          f"at scale {suite.scale.name!r}")
    print(f"  reused in memory: {stats['reused']}, loaded from cache: "
          f"{stats['disk_hits']}, simulated: {stats['simulated']}")
    if suite.cache is not None:
        print(f"cache: {suite.cache.root} ({len(suite.cache)} entries)")
    else:
        print("cache: disabled (--no-cache); results were not persisted")
    return 0 if suite.verified() else 1


def _cmd_sweep(args: argparse.Namespace, network: dict) -> int:
    kinds = []
    for name in args.configs:
        kind = SystemKind.from_name(name)
        if not kind.uses_hmc:
            raise SystemExit(f"repro: --configs {kind.value}: the DRAM baseline "
                             f"has no memory network to sweep (it is still "
                             f"simulated once as the speedup denominator)")
        if kind not in kinds:
            kinds.append(kind)
    # The sweep has no suite-wide network: its shape, controller and
    # bandwidth flags are swept value lists, and the failure flags (all that
    # ``network`` holds here) ride along to every swept cell.
    suite = _make_suite(args, {}, workloads=args.workloads)
    with _usage_errors():
        # Planning builds every swept network, so an impossible shape fails
        # here; simulation and rendering errors below keep their tracebacks.
        sweep = fig_topology.plan(
            suite, args.topologies, args.cube_counts, kinds, args.workloads,
            net_overrides=network, controller_counts=args.controller_counts,
            link_bandwidths=args.link_bandwidths)
    stats = suite.resolve(sweep.jobs(suite))
    text = fig_topology.FIGURE.render(sweep.compute(suite))
    print(text)
    print()
    print(f"sweep: {stats['pairs']} runs at scale {suite.scale.name!r} "
          f"(workload x network x scheme cells + shared DRAM baselines)")
    print(f"  reused in memory: {stats['reused']}, loaded from cache: "
          f"{stats['disk_hits']}, simulated: {stats['simulated']}")
    if suite.cache is not None:
        print(f"cache: {suite.cache.root} ({len(suite.cache)} entries)")
    else:
        print("cache: disabled (--no-cache); results were not persisted")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    return 0 if suite.verified() else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    network = {name: getattr(args, name) for name in NETWORK_FLAGS
               if getattr(args, name, None) is not None}
    if args.command == "run":
        return _cmd_run(args, network)
    if args.command == "report":
        return _cmd_report(args, network)
    if args.command == "prefetch":
        return _cmd_prefetch(args, network)
    if args.command == "sweep":
        return _cmd_sweep(args, network)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
