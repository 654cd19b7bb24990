"""Command-line interface: regenerate paper figures from the terminal.

Usage::

    python -m repro fig10              # best design vs the 12-core Xeon
    python -m repro fig7 --tiles 16    # ring-vs-crossbar table
    python -m repro run Denoise --islands 24 --network ring2x32
    python -m repro sweep --jobs 4     # parallel, cached design-space sweep
    python -m repro report             # every figure, in order
"""

from __future__ import annotations

import argparse
import math
import sys
import typing
from dataclasses import replace

from repro.arch.presets import PAPER_NETWORKS
from repro.cmp import compare_to_cmp, xeon_e5_2420
from repro.dse import (
    fig6_series,
    fig7_table,
    fig8_table,
    fig9_table,
    fig10_table,
)
from repro.dse.plots import hbar_chart, line_series
from repro.errors import ConfigError, ReproError
from repro.faults import parse_fault_spec
from repro.power import OP_ENERGY_TABLE, PipelineEnergyModel, aes_efficiency_gap
from repro.sim import SystemConfig, run_workload
from repro.workloads import PAPER_BENCHMARKS, get_workload

#: CLI aliases for the paper's network configurations.
NETWORK_ALIASES = {
    "crossbar": "Crossbar",
    "ring1x16": "1-Ring, 16-Byte",
    "ring1x32": "1-Ring, 32-Byte",
    "ring2x32": "2-Ring, 32-Byte",
    "ring3x32": "3-Ring, 32-Byte",
}


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _network(name: str):
    """The paper network configuration behind a CLI alias."""
    if name not in NETWORK_ALIASES:
        raise ConfigError(
            f"unknown network {name!r}; choose from {sorted(NETWORK_ALIASES)}"
        )
    return PAPER_NETWORKS[NETWORK_ALIASES[name]]


# --------------------------------------------------------------- commands
def cmd_fig2(_args) -> None:
    """Print the Figure 2 pipeline energy breakdown."""
    model = PipelineEnergyModel()
    _print(hbar_chart(model.shares, title="Figure 2: pipeline energy breakdown (%)"))
    _print(
        f"compute {model.compute_fraction():.1%}, memory "
        f"{model.memory_fraction():.1%}, overhead {model.overhead_fraction():.1%}"
    )


def cmd_fig3(_args) -> None:
    """Print the Figure 3 ASIC-compute breakdown."""
    fig3 = PipelineEnergyModel().with_asic_compute()
    _print(hbar_chart(fig3, title="Figure 3: breakdown with ASIC compute units (%)"))


def cmd_ops(_args) -> None:
    """Print the Section 1 per-op savings and AES gap."""
    savings = {name: op.savings_factor for name, op in OP_ENERGY_TABLE.items()}
    _print(hbar_chart(savings, title="Section 1: ASIC energy savings (X)"))
    _print(f"AES efficiency gap: {aes_efficiency_gap():,.0f}X")


def cmd_fig6(args, memo=None) -> None:
    """Print the Figure 6 island-scaling series."""
    series = fig6_series(tiles=args.tiles, memo=memo)
    _print(
        line_series(
            series,
            x_labels=[3, 6, 12, 24],
            title="Figure 6: performance vs islands (normalized to 3-island crossbar)",
        )
    )


def _print_ring_table(table, title: str) -> None:
    alias = {label: name for name, label in NETWORK_ALIASES.items()}
    _print(title)
    for n_islands, rows in table.items():
        _print(f"-- {n_islands} islands --")
        for name, row in rows.items():
            cells = (f"{alias[label]}={value:4.2f}" for label, value in row.items())
            _print(f"  {name:<20} " + "  ".join(cells))


def cmd_fig7(args, memo=None) -> None:
    """Print the Figure 7 ring-vs-crossbar table."""
    _print_ring_table(
        fig7_table(tiles=args.tiles, memo=memo),
        "Figure 7: ring performance normalized to proxy crossbar",
    )


def cmd_fig8(args, memo=None) -> None:
    """Print the Figure 8 performance-per-energy table."""
    _print_ring_table(
        fig8_table(tiles=args.tiles, memo=memo),
        "Figure 8: performance per unit energy (normalized)",
    )


def cmd_fig9(args, memo=None) -> None:
    """Print the Figure 9 performance-per-area table."""
    _print_ring_table(
        fig9_table(tiles=args.tiles, memo=memo),
        "Figure 9: performance per unit area (normalized)",
    )


def cmd_fig10(args, memo=None) -> None:
    """Print the Figure 10 CMP comparison as bar charts."""
    table = fig10_table(tiles=args.tiles, memo=memo)
    speedups = {name: row["speedup"] for name, row in table.items()}
    _print(
        hbar_chart(
            speedups,
            title="Figure 10: speedup over 12-core Xeon E5-2420",
            reference=1.0,
        )
    )
    gains = {name: row["energy_gain"] for name, row in table.items()}
    _print("")
    _print(hbar_chart(gains, title="Figure 10: energy gain over the CMP"))


def cmd_run(args) -> None:
    """Run one benchmark on one configuration and summarize it."""
    network = _network(args.network)
    fault_spec = parse_fault_spec(args.faults) if args.faults else None
    config = SystemConfig(n_islands=args.islands, network=network)
    if fault_spec is not None:
        config = replace(config, faults=fault_spec, fault_seed=args.fault_seed)
    workload = get_workload(args.workload, tiles=args.tiles)
    result = run_workload(config, workload)
    _print(f"{workload.name} on {config.label()}")
    _print(f"  cycles/tile      {result.cycles_per_tile:,.0f}")
    _print(f"  energy/tile      {result.energy_per_tile_nj / 1e6:.3f} mJ")
    _print(f"  area             {result.area_mm2:.1f} mm^2")
    _print(
        f"  ABB utilization  {result.abb_utilization_avg:.1%} avg / "
        f"{result.abb_utilization_peak:.1%} peak"
    )
    comparison = compare_to_cmp(result, workload, xeon_e5_2420())
    _print(
        f"  vs {comparison.cmp_name}: {comparison.speedup:.1f}X speedup, "
        f"{comparison.energy_gain:.1f}X energy gain"
    )
    if fault_spec is not None and fault_spec.enabled:
        clean = run_workload(replace(config, faults=type(fault_spec)()), workload)
        _print(
            f"  faults           {fault_spec.label()} "
            f"(seed {args.fault_seed})"
        )
        _print(
            f"  degradation      {result.failed_abbs} ABBs failed, "
            f"{result.dma_stalls} DMA stalls, {result.dma_retries} DMA "
            f"retries, {result.fallback_tiles}/{result.tiles} tiles used "
            f"software fallback"
        )
        _print(
            f"  slowdown         {result.slowdown_vs(clean):.2f}X vs clean run"
        )


def _parse_csv(text: str, label: str) -> list:
    """Split a comma-separated CLI value, rejecting empties."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"no {label} given in {text!r}")
    return items


def cmd_sweep(args) -> None:
    """Sweep a design space, optionally in parallel and cached."""
    from repro.dse import DesignSpace, Explorer, ResultCache
    from repro.sim.serialize import save_results

    networks = tuple(
        _network(name) for name in _parse_csv(args.networks, "networks")
    )
    try:
        island_counts = tuple(
            int(n) for n in _parse_csv(args.islands, "island counts")
        )
    except ValueError as err:
        raise ConfigError(f"bad island count: {err}") from None
    space = DesignSpace(
        island_counts=island_counts,
        networks=networks,
    )
    workloads = [
        get_workload(name, tiles=args.tiles)
        for name in _parse_csv(args.workloads, "workloads")
    ]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    explorer = Explorer(workloads, cache=cache, jobs=args.jobs)
    _print(
        f"sweeping {space.size()} design points x {len(workloads)} "
        f"workloads ({args.jobs} job{'s' if args.jobs != 1 else ''}, "
        f"cache {'off' if cache is None else 'at ' + args.cache_dir}) ..."
    )
    rows = explorer.sweep(space)
    for row in rows:
        _print(
            f"  {row.workload:<20} {row.config.label():<28} "
            f"perf {row.result.performance:8.2f}  "
            f"cycles/tile {row.result.cycles_per_tile:12,.0f}"
        )
    _print(f"simulations run: {explorer.simulations_run}/{len(rows)}")
    if cache is not None:
        stats = cache.stats()
        _print(
            f"cache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['entries']} entries on disk"
        )
    if args.out:
        save_results(
            [row.result for row in rows],
            args.out,
            note=f"sweep of {space.size()} points",
        )
        _print(f"wrote {len(rows)} results to {args.out}")


def cmd_serve(args) -> None:
    """Run a multi-tenant open-loop serving session and report SLOs."""
    from repro.dse import ResultCache, serve_point_fingerprint
    from repro.serve import (
        ADMISSION_POLICIES,
        AdmissionConfig,
        ArrivalConfig,
        ServeConfig,
        estimate_saturation,
        make_tenants,
        run_serve,
        save_serve_results,
        trace_from_file,
    )

    # Reject bad flags before the saturation probe simulates anything.
    if args.tenants < 1:
        raise ConfigError(f"--tenants must be at least 1, got {args.tenants}")
    # Chained comparisons also reject NaN, which every comparison fails.
    if not 0 < args.duration < math.inf:
        raise ConfigError(
            f"--duration must be positive and finite, got {args.duration}"
        )
    if not 0 < args.load < math.inf:
        raise ConfigError(f"--load must be positive and finite, got {args.load}")
    if not 0 <= args.rate < math.inf:
        raise ConfigError(
            f"--rate must be non-negative and finite, got {args.rate}"
        )
    if args.arrival == "trace":
        if not args.trace_file:
            raise ConfigError("--arrival trace needs --trace-file")
        arrival = trace_from_file(args.trace_file, seed=args.seed)
    admissions = [
        AdmissionConfig(
            policy=policy,
            wait_bound_cycles=args.wait_bound or None,
            queue_bound=args.queue_bound,
        )
        for policy in (ADMISSION_POLICIES if args.compare else [args.policy])
    ]
    config = SystemConfig(
        n_islands=args.islands,
        network=_network(args.network),
    )
    workloads = [
        get_workload(name, tiles=args.tiles)
        for name in _parse_csv(args.workloads, "workloads")
    ]
    tenant_workloads = [
        workloads[i % len(workloads)] for i in range(args.tenants)
    ]

    # Closed-loop anchor: measured saturation throughput of a fair
    # interleaving, so "--load 0.8" means 80% of measured capacity.
    saturation = estimate_saturation(config, tenant_workloads)
    if args.rate > 0:
        per_tenant_rate = args.rate
    else:
        per_tenant_rate = args.load * saturation / args.tenants
    if args.arrival != "trace":
        arrival = ArrivalConfig(
            kind=args.arrival,
            rate_per_mcycle=per_tenant_rate,
            seed=args.seed,
        )
    tenants = make_tenants(args.tenants, workloads, arrival)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    _print(
        f"{args.tenants} tenants on {config.label()} | closed-loop "
        f"saturation {saturation:.1f} req/Mcycle, offering "
        f"{per_tenant_rate:.1f}/tenant ({args.arrival})"
    )
    results = []
    for admission in admissions:
        serve = ServeConfig(
            tenants=tenants,
            admission=admission,
            duration_cycles=args.duration,
            seed=args.seed,
        )
        result = None
        fingerprint = serve_point_fingerprint(config, serve)
        if cache is not None:
            result = cache.get_serve(fingerprint)
        if result is None:
            result = run_serve(config, serve)
            if cache is not None:
                cache.put_serve(fingerprint, result)
        results.append(result)

    _print(
        f"{'policy':<16} {'offered':>8} {'goodput':>8} {'p50':>10} "
        f"{'p95':>10} {'p99':>10} {'fb%':>6} {'shed%':>6} {'jain':>5}"
    )
    for result in results:
        _print(
            f"{result.policy:<16} {result.offered_load:8.1f} "
            f"{result.goodput:8.1f} {result.latency_p50:10,.0f} "
            f"{result.latency_p95:10,.0f} {result.latency_p99:10,.0f} "
            f"{result.fallback_rate:6.1%} {result.shed_rate:6.1%} "
            f"{result.jain_fairness:5.2f}"
        )
    _print("")
    _print(
        "closed-loop vs open-loop: saturation throughput "
        f"{saturation:.1f} req/Mcycle has no latency tail; at "
        f"{per_tenant_rate * args.tenants:.1f} req/Mcycle offered the "
        f"{results[0].policy} session sustains "
        f"{results[0].goodput:.1f} with p99 "
        f"{results[0].latency_p99:,.0f} cycles"
    )
    detail = results[-1]
    _print(f"per-tenant ({detail.policy}):")
    for tenant in detail.tenants:
        _print(
            f"  {tenant.tenant:<6} {tenant.workload:<14} offered "
            f"{tenant.offered:5d}  p99 {tenant.latency_p99:10,.0f}  "
            f"hw {tenant.hw_completed:5d}  sw {tenant.sw_fallbacks:4d}  "
            f"shed {tenant.shed:4d}"
        )
    if args.out:
        save_serve_results(
            results,
            args.out,
            note=f"{args.tenants} tenants, {args.arrival} arrivals",
        )
        _print(f"wrote {len(results)} serve results to {args.out}")
    if args.metrics_out:
        from repro.obs import serve_metrics

        registry = serve_metrics(detail)
        registry.save(args.metrics_out)
        _print(
            f"wrote {len(registry)} per-tenant metrics to {args.metrics_out}"
        )
    if args.trace_out:
        from repro.engine.trace import Tracer
        from repro.obs import CATEGORIES, write_trace

        # The cached result carries no span trace, so re-run the last
        # policy's session with a tracer attached; tracing is
        # bit-neutral, so this reproduces the reported session exactly.
        session_tracer = Tracer()
        traced = run_serve(config, serve, tracer=session_tracer)
        write_trace(
            session_tracer,
            args.trace_out,
            note=f"serve {traced.policy}, {args.tenants} tenants",
        )
        _print(
            f"wrote {len(session_tracer.records):,} spans to "
            f"{args.trace_out} (open in ui.perfetto.dev)"
        )
        _print("session critical-path attribution:")
        for category in CATEGORIES:
            share = traced.extras.get(f"attr.{category}", 0.0)
            _print(f"  {category:<13} {share:6.1%}")


def cmd_trace(args) -> None:
    """Trace one run, export Perfetto JSON, and print the bottlenecks."""
    from repro.engine.trace import Tracer
    from repro.obs import write_trace
    from repro.sim.run import simulate

    if args.top < 0:
        raise ConfigError(f"--top must be non-negative, got {args.top}")
    config = SystemConfig(
        n_islands=args.islands,
        network=_network(args.network),
    )
    workload = get_workload(args.workload, tiles=args.tiles)
    tracer = Tracer()
    report = simulate(config, [workload], tracer=tracer)[1]
    write_trace(
        tracer, args.out, note=f"{workload.name} on {config.label()}"
    )
    _print(
        f"{workload.name} on {config.label()}: {len(tracer.records):,} spans "
        f"-> {args.out} (open in ui.perfetto.dev)"
    )
    _print("")
    _print("critical-path attribution:")
    _print(report.format_table())
    _print("")
    _print("hotspots (busiest actors):")
    for actor, cycles in tracer.hotspots(args.top):
        _print(f"  {actor:<28} {cycles:14,.0f} cycles")


def _print_attribution_report(args) -> None:
    """Traced medical-imaging suite -> per-workload bottleneck shares."""
    from repro.engine.trace import Tracer
    from repro.obs import CATEGORIES
    from repro.workloads import MEDICAL_NAMES

    config = SystemConfig()
    _print(
        f"Bottleneck attribution on {config.label()} "
        "(critical-path share of makespan)"
    )
    _print(
        f"{'workload':<16}" + "".join(f"{c:>14}" for c in CATEGORIES)
    )
    for name in MEDICAL_NAMES:
        workload = get_workload(name, tiles=args.tiles)
        tracer = Tracer()
        result = run_workload(config, workload, tracer=tracer)
        _print(
            f"{workload.name:<16}"
            + "".join(
                f"{result.attribution.get(c, 0.0):>13.1%} " for c in CATEGORIES
            )
        )


def cmd_topology(args) -> None:
    """Render the mesh floorplan (the Figure 4 view) for N islands."""
    from repro.noc import MeshTopology
    from repro.noc.diagram import render_topology

    _print(render_topology(MeshTopology(n_islands=args.islands)))


def cmd_report(args) -> None:
    """Regenerate every figure, in paper order."""
    if getattr(args, "attribution", False):
        _print_attribution_report(args)
        return
    for fn in (cmd_fig2, cmd_fig3, cmd_ops):
        fn(args)
        _print("")
    # One memo across the figures: each design point is simulated once.
    memo: dict = {}
    for fn in (cmd_fig6, cmd_fig7, cmd_fig8, cmd_fig9, cmd_fig10):
        fn(args, memo)
        _print("")


# ----------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all figure subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Accelerator-Rich Architectures' (DAC 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, tiles: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if tiles:
            p.add_argument("--tiles", type=int, default=12, help="tiles per run")
        return p

    add("fig2", cmd_fig2, "pipeline energy breakdown", tiles=False)
    add("fig3", cmd_fig3, "breakdown with ASIC compute units", tiles=False)
    add("ops", cmd_ops, "per-op energy savings and AES gap", tiles=False)
    add("fig6", cmd_fig6, "networks across island counts")
    add("fig7", cmd_fig7, "ring vs crossbar performance")
    add("fig8", cmd_fig8, "performance per unit energy")
    add("fig9", cmd_fig9, "performance per unit area")
    add("fig10", cmd_fig10, "best design vs 12-core CMP")
    report = add("report", cmd_report, "all figures in order")
    report.add_argument(
        "--attribution",
        action="store_true",
        help="print critical-path bottleneck attribution for the medical suite",
    )

    run = add("run", cmd_run, "run one benchmark on one configuration")
    run.add_argument("workload", choices=sorted(PAPER_BENCHMARKS))
    run.add_argument("--islands", type=int, default=24)
    run.add_argument(
        "--network", default="ring2x32", help=f"one of {sorted(NETWORK_ALIASES)}"
    )
    run.add_argument(
        "--faults",
        default="",
        help=(
            "fault-injection spec, e.g. 'abb:0.25,dma:0.1,noc:0.2' "
            "(see docs/ROBUSTNESS.md)"
        ),
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for fault draws; same spec + seed reproduces bit-identical runs",
    )

    sweep = add("sweep", cmd_sweep, "sweep a design space (parallel, cached)")
    sweep.add_argument(
        "--workloads",
        default="Denoise,EKF-SLAM",
        help="comma-separated benchmark names",
    )
    sweep.add_argument(
        "--islands",
        default="3,6,12,24",
        help="comma-separated island counts",
    )
    sweep.add_argument(
        "--networks",
        default=",".join(sorted(NETWORK_ALIASES)),
        help=f"comma-separated networks from {sorted(NETWORK_ALIASES)}",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="persistent result-cache directory",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    sweep.add_argument("--out", default="", help="write results JSON here")

    serve = add("serve", cmd_serve, "multi-tenant open-loop serving session")
    serve.add_argument(
        "--workloads",
        default="Denoise",
        help="comma-separated benchmark names, cycled across tenants",
    )
    serve.add_argument(
        "--tenants", type=int, default=4, help="number of tenants"
    )
    serve.add_argument(
        "--arrival",
        default="poisson",
        choices=["poisson", "onoff", "trace"],
        help="arrival process per tenant",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="offered requests per megacycle per tenant (0 = use --load)",
    )
    serve.add_argument(
        "--load",
        type=float,
        default=0.8,
        help="offered load as a fraction of measured closed-loop saturation",
    )
    serve.add_argument(
        "--trace-file", default="", help="arrival trace file (kind=trace)"
    )
    serve.add_argument(
        "--policy",
        default="always_hw",
        choices=["always_hw", "wait_threshold", "shed"],
        help="admission policy",
    )
    serve.add_argument(
        "--compare",
        action="store_true",
        help="run all three policies and compare",
    )
    serve.add_argument(
        "--wait-bound",
        type=float,
        default=0.0,
        help="wait_threshold bound in cycles (0 = the software-path cost)",
    )
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=32,
        help="shed policy queue-depth bound",
    )
    serve.add_argument("--seed", type=int, default=0, help="session seed")
    serve.add_argument(
        "--duration",
        type=float,
        default=2_000_000.0,
        help="arrival window in cycles",
    )
    serve.add_argument("--islands", type=int, default=3)
    serve.add_argument(
        "--network", default="ring2x32", help=f"one of {sorted(NETWORK_ALIASES)}"
    )
    serve.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="persistent result-cache directory",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    serve.add_argument("--out", default="", help="write serve results JSON here")
    serve.add_argument(
        "--metrics-out",
        default="",
        help="write the per-tenant metrics registry JSON here",
    )
    serve.add_argument(
        "--trace-out",
        default="",
        help="re-run the last policy traced and write Perfetto JSON here",
    )

    trace = add("trace", cmd_trace, "trace one run and export Perfetto JSON")
    trace.add_argument("workload", choices=sorted(PAPER_BENCHMARKS))
    trace.add_argument("--islands", type=int, default=3)
    trace.add_argument(
        "--network", default="crossbar", help=f"one of {sorted(NETWORK_ALIASES)}"
    )
    trace.add_argument(
        "--out", default="trace.json", help="Perfetto trace-event JSON path"
    )
    trace.add_argument(
        "--top", type=int, default=5, help="hotspot actors to list"
    )

    topo = add("topology", cmd_topology, "render the mesh floorplan", tiles=False)
    topo.add_argument("--islands", type=int, default=24)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tiles", 1) < 1:
        parser.error(f"tiles must be >= 1, got {args.tiles}")
    try:
        args.handler(args)
    except ReproError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
