"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo [--scale S] [--date D] [--no-merge]
  [--shards N] [--trace FILE] [--metrics] [--metrics-json FILE]
  [--faults SPEC] [--deadline S]`` — generate a
  hospital dataset and produce one day's report through the middleware,
  printing summary statistics (add ``--xml`` to dump the document;
  ``--shards N`` partitions the document by key
  range and evaluates in N worker processes — see docs/SHARDING.md;
  ``--trace`` writes a Chrome trace-event JSON loadable in Perfetto /
  ``chrome://tracing`` with one track per source; ``--faults``
  injects deterministic failures, each refused with a typed error — see
  docs/RESILIENCE.md).
* ``calibrate [--scale S] [--json FILE]`` — run one report
  and print the cost-model calibration: the optimizer's modeled
  ``eval_cost``/``size`` per QDG node joined against measured wall time
  and bytes, with q-error aggregates (see docs/OBSERVABILITY.md).
* ``profile [--scale S] [--runs N] [--ledger FILE]
  [--prometheus FILE] [--json FILE]`` — EXPLAIN ANALYZE: evaluate under
  measurement and print the executed plan annotated with estimated vs
  measured rows/seconds and per-node q-error; ``--runs N`` evaluates N
  times on one middleware, so the plan is optimized once.
* ``check [--scale S]`` — the full cross-path equivalence check: conceptual
  vs. optimized evaluation, DTD conformance, constraint satisfaction.
* ``fuzz [--seeds N] [--start N] [--violate-every N] [--seed-file FILE]
  [--shrink] [--out DIR]`` — differential fuzzing: seeded random AIGs
  evaluated under the full configuration grid (conceptual vs. middleware
  × merging × incremental × fault refusal),
  writing a JSON repro file for any divergence (see docs/TESTING.md).
* ``serve [--host H] [--port P] [--scale S] [--no-merge]
  [--no-incremental] [--max-inflight N] [--queue-depth N]
  [--max-tenants N] [--tenant-ttl S] [--ledger FILE]``
  — run the long-lived multi-tenant evaluation service (docs/SERVICE.md):
  compiled plans, incremental caches and source connections stay warm
  across HTTP requests; a hospital tenant
  is pre-registered; ``--max-tenants``/``--tenant-ttl`` bound the
  registry with LRU + idle-TTL eviction.
* ``explain`` — print the optimizer's plan; ``info`` — component inventory.

Every command accepts ``-v/--verbose`` (repeatable) and ``--quiet``, which
configure stdlib logging for the ``repro.`` namespace.  A command that
ends in a :class:`~repro.errors.ReproError` prints ``error: <type>:
<message>`` on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys


def _make_tracer(args):
    """A recording tracer when any observability output was requested."""
    if (getattr(args, "trace", None) or getattr(args, "metrics", False)
            or getattr(args, "metrics_json", None)
            or getattr(args, "prometheus", None)):
        from repro.obs import Tracer
        return Tracer()
    return None


def _export_observability(tracer, args) -> None:
    if tracer is None:
        return
    from repro.obs import (text_summary, write_chrome_trace, write_metrics,
                           write_prometheus)
    if getattr(args, "trace", None):
        spans = write_chrome_trace(tracer, args.trace)
        print(f"trace: {spans} span(s) on {len(tracer.tracks())} track(s) "
              f"-> {args.trace} (open in Perfetto / chrome://tracing)")
    if getattr(args, "metrics_json", None):
        payload = write_metrics(tracer, args.metrics_json)
        named = (len(payload.get("counters", {}))
                 + len(payload.get("gauges", {})))
        print(f"metrics: {named} counter(s)/gauge(s) -> {args.metrics_json}")
    if getattr(args, "prometheus", None):
        lines = write_prometheus(tracer, args.prometheus)
        print(f"prometheus: {lines} line(s) -> {args.prometheus}")
    if getattr(args, "metrics", False):
        print(text_summary(tracer))


def _demo(args) -> int:
    from repro import Middleware, Network, serialize
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig

    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources(args.scale)
    date = args.date or dataset.busiest_date()
    tracer = _make_tracer(args)
    middleware = Middleware(
        aig, sources, Network.mbps(args.mbps),
        merging=not args.no_merge,
        unfold_depth="auto",
        tracer=tracer,
        deadline=args.deadline,
        incremental=args.incremental,
        ledger=args.ledger,
        shards=args.shards)
    injector = None
    if args.faults:
        from repro.resilience import FaultInjector
        injector = FaultInjector.from_spec(args.faults)
        injector.install(sources)
        print(f"faults: {args.faults}")
    warm = None
    try:
        report = middleware.evaluate({"date": date})
        if args.incremental:
            warm = middleware.evaluate({"date": date})
        _print_demo_summary(args, date, report, warm)
    finally:
        # a refusal still reports what fired and what was measured
        if injector is not None:
            injector.uninstall(sources)
            fired = ", ".join(str(clause)
                              for _, clause in injector.fired) or "none"
            print(f"faults fired: {fired}")
        _export_observability(tracer, args)
    if args.xml:
        print(serialize(report.document, indent=2))
    return 0


def _print_demo_summary(args, date, report, warm) -> None:
    patients = len(report.document.find_all("patient"))
    print(f"report for {date} ({args.scale} dataset): "
          f"{patients} patients, {report.document.size()} nodes")
    print(f"plan: {report.node_count} queries "
          f"(merging {'on' if report.merged else 'off'}, "
          f"unfold depth {report.unfold_depth}); "
          f"simulated response {report.response_time:.2f}s at "
          f"{args.mbps:g} Mbps, {report.bytes_shipped} bytes shipped")
    print(f"execution: {report.measured_seconds:.3f}s wall")
    if report.shards > 1:
        rss = (max(report.shard_peak_rss) if report.shard_peak_rss else 0)
        print(f"sharding: {report.shards} process(es), rows/shard "
              f"{report.shard_rows}, reconcile "
              f"{report.reconcile_seconds * 1000:.1f}ms, IPC "
              f"{report.ipc_bytes} bytes, peak worker RSS {rss} KiB")
    elif args.shards > 1:
        print("sharding: requested but the AIG has no eligible partition "
              "production; ran single-process")
    if warm is not None:
        ratio = (report.measured_seconds
                 / max(warm.measured_seconds, 1e-9))
        identical = warm.document == report.document
        print(f"incremental re-run: {warm.queries_executed} queries "
              f"({warm.reused_nodes} node(s) reused), "
              f"{warm.measured_seconds:.4f}s wall ({ratio:.0f}x faster), "
              f"identical={identical}")


def _calibrate(args) -> int:
    from repro import Middleware, Network
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig

    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources(args.scale)
    date = args.date or dataset.busiest_date()
    middleware = Middleware(aig, sources, Network.mbps(args.mbps),
                            merging=not args.no_merge,
                            unfold_depth="auto")
    middleware.evaluate({"date": date})
    report = middleware.calibration_report()
    print(report.to_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"calibration: {len(report.nodes)} node(s) -> {args.json}")
    return 0


def _profile(args) -> int:
    from repro import Middleware, Network
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig
    from repro.obs import profile_evaluation

    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources(args.scale)
    date = args.date or dataset.busiest_date()
    tracer = _make_tracer(args)
    middleware = Middleware(aig, sources, Network.mbps(args.mbps),
                            merging=not args.no_merge,
                            unfold_depth="auto",
                            tracer=tracer,
                            ledger=args.ledger)
    for run in range(1, args.runs + 1):
        _, calibration, text = profile_evaluation(middleware,
                                                  {"date": date})
        if args.runs > 1:
            print(f"-- run {run}/{args.runs} --")
        print(text)
        aggregates = calibration.aggregates()
        print(f"calibrate: q-error median rows "
              f"{aggregates['rows_q_error']['median']:.2f}, seconds "
              f"{aggregates['seconds_q_error']['median']:.2f} "
              f"(mean {aggregates['seconds_q_error']['mean']:.2f}, "
              f"max {aggregates['seconds_q_error']['max']:.2f})")
        if run < args.runs:
            print()
    print("statistics read:", *middleware.stats.describe_reads(), sep="\n")
    if args.json:
        payload = {"nodes": [node.to_dict() for node in calibration.nodes],
                   "calibration": aggregates}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"profile: {len(calibration.nodes)} node(s) -> {args.json}")
    if args.ledger:
        print(f"ledger: {args.runs} record(s) appended -> {args.ledger}")
    _export_observability(tracer, args)
    return 0


def _check(args) -> int:
    from repro import ConceptualEvaluator, Middleware, Network, conforms_to
    from repro.constraints import check_constraints
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig

    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources(args.scale)
    date = dataset.busiest_date()
    conceptual = ConceptualEvaluator(
        aig, list(sources.values())).evaluate({"date": date})
    failures = 0
    for merging in (False, True):
        report = Middleware(aig, sources, Network.mbps(1.0),
                            merging=merging).evaluate({"date": date})
        label = "merged" if merging else "unmerged"
        same = report.document == conceptual
        conforms = conforms_to(report.document, aig.dtd)
        satisfied = not check_constraints(report.document, aig.constraints)
        print(f"{label:>9s}: identical={same} conforms={conforms} "
              f"constraints={satisfied}")
        failures += (not same) + (not conforms) + (not satisfied)
    print("OK" if failures == 0 else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 1


def _explain(args) -> int:
    from repro import Middleware, Network
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig

    sources, dataset = make_loaded_sources(args.scale)
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                            merging=not args.no_merge,
                            unfold_depth=args.depth,
                            incremental=args.incremental)
    analyze_text = None
    if args.analyze:
        # EXPLAIN ANALYZE: evaluate under measurement, then print the
        # plan followed by the est-vs-measured annotation of what ran.
        from repro.obs import profile_evaluation
        _, _, analyze_text = profile_evaluation(
            middleware, {"date": dataset.busiest_date()})
    elif args.incremental:
        # Warm the cache so the report can show per-node taint state.
        middleware.evaluate({"date": dataset.busiest_date()})
    # After a run, at the depth the re-unrolling loop settled on: the plan
    # that ran, which is the one the next run starts from.
    print(middleware.explain(timed=args.analyze))
    if analyze_text is not None:
        print()
        print(analyze_text)
    return 0


def _fuzz(args) -> int:
    import logging
    import os

    from repro.fuzz import (FuzzGenerationError, from_json,
                            generate_scenario, run_oracle, shrink, to_json)

    if not args.verbose:
        # report-mode guard findings are *expected* on
        # violation-injected iterations
        logging.getLogger("repro").setLevel(logging.ERROR)

    def artifact(name: str, spec, report) -> str:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        spec.notes["divergences"] = [str(d) for d in report.divergences]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_json(spec))
            handle.write("\n")
        return path

    def handle_divergence(spec, report) -> None:
        print(f"seed {spec.seed}: DIVERGED "
              f"({len(report.divergences)} finding(s))")
        for divergence in report.divergences:
            print(f"    {divergence}")
        name = f"repro_fuzz_{spec.seed:05d}.json"
        if args.shrink:
            configs = tuple({d.config for d in report.divergences})
            small = shrink(spec, configs=configs)
            print(f"    shrunk {spec.production_count()} -> "
                  f"{small.production_count()} production(s), "
                  f"{sum(len(t.rows) for t in small.tables)} row(s) "
                  f"({small.notes['shrink']['checks']} probe(s))")
            spec = small
            report = run_oracle(spec, configs)
        path = artifact(name, spec, report)
        print(f"    repro written to {path}")

    if args.seed_file:
        with open(args.seed_file, encoding="utf-8") as handle:
            spec = from_json(handle.read())
        report = run_oracle(spec)
        if report.ok:
            print(f"{args.seed_file}: no divergence "
                  f"({len(report.results)} configuration(s) agree)")
            return 0
        handle_divergence(spec, report)
        return 1

    diverged = 0
    configurations = 0
    # configuration runs / seeds whose plan has a product node, and whose
    # plan bound a parameter its producing query only projected
    products = [0, 0]
    propagated = [0, 0]
    for seed in range(args.start, args.start + args.seeds):
        violate = (args.violate_every > 0
                   and seed % args.violate_every == args.violate_every - 1)
        try:
            spec = generate_scenario(seed, violate=violate)
        except FuzzGenerationError as error:
            print(f"seed {seed}: generation failed: {error}")
            diverged += 1
            continue
        report = run_oracle(spec)
        configurations += len(report.results)
        for tally, fired in ((products, report.products),
                             (propagated, report.propagated)):
            if fired:
                tally[0] += len(report.results)
                tally[1] += 1
        if args.verbose:
            print(f"seed {seed}: {'ok' if report.ok else 'DIVERGED'} "
                  f"[{spec.production_count()} production(s), "
                  f"{len(spec.tables)} table(s)"
                  f"{', violation-injected' if violate else ''}]")
        if not report.ok:
            diverged += 1
            handle_divergence(spec, report)
    verdict = ("zero divergence" if diverged == 0
               else f"{diverged} DIVERGENT seed(s)")
    print(f"fuzz: {args.seeds} seed(s), {configurations} configuration "
          f"run(s), {verdict}")
    print(f"rewrites: {products[0]} configuration run(s) with a product "
          f"node ({products[1]} seed(s)), {propagated[0]} with a propagated "
          f"parameter ({propagated[1]} seed(s))")
    return 0 if diverged == 0 else 1


def _serve(args) -> int:
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig
    from repro.service import EvaluationService
    from repro.service.server import serve_forever

    service = EvaluationService(max_inflight=args.max_inflight,
                                max_queued=args.queue_depth,
                                max_tenants=args.max_tenants,
                                tenant_ttl=args.tenant_ttl)
    aig = build_hospital_aig()
    sources, _ = make_loaded_sources(args.scale)
    config = {"merging": not args.no_merge,
              "incremental": not args.no_incremental,
              "unfold_depth": "auto"}
    if args.ledger:
        config["ledger"] = args.ledger
    state = service.register_tenant("hospital", aig, sources, config)
    print(f"tenant 'hospital' registered ({args.scale} dataset, "
          f"plan key {state.plan_key})")
    serve_forever(service, args.host, args.port)
    return 0


def _faults_value(text: str) -> str:
    """argparse type for ``--faults``: validate the spec grammar early."""
    from repro.errors import SpecError
    from repro.resilience import parse_fault_spec
    try:
        parse_fault_spec(text)
    except SpecError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _positive(convert, noun: str):
    """argparse type: ``convert(text)``, refused unless finite and > 0."""
    def value(text: str):
        try:
            number = convert(text)
        except ValueError:
            number = None
        if number is None or not 0 < number < float("inf"):
            raise argparse.ArgumentTypeError(
                f"expected a positive {noun}, got {text!r}")
        return number
    return value


_positive_int = _positive(int, "integer")
_positive_number = _positive(float, "number")


def _info(args) -> int:
    import repro
    print(f"repro {repro.__version__} — Attribute Integration Grammars")
    print("reproduction of Benedikt, Chan, Fan, Freire, Rastogi: "
          "'Capturing both Types and Constraints in Data Integration' "
          "(SIGMOD 2003)")
    components = [
        ("repro.aig", "grammar, rules, type checking, conceptual evaluator"),
        ("repro.compilation", "constraint compilation, decomposition, "
                              "copy elimination"),
        ("repro.optimizer", "query dependency graph, cost model, "
                            "Schedule, Merge"),
        ("repro.runtime", "execution engine, tagging, recursion handling"),
        ("repro.obs", "tracing, metrics, calibration, run ledger, "
                      "EXPLAIN ANALYZE"),
        ("repro.analysis", "termination / reachability / CSR analyses"),
        ("repro.datagen", "Table 1 datasets (ToXgene substitute)"),
    ]
    for module, summary in components:
        print(f"  {module:20s} {summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="log more (-v: phase info, -vv: per-node "
                             "debug)")
    common.add_argument("--quiet", action="store_true",
                        help="log errors only")

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AIG data-integration middleware (SIGMOD 2003 "
                    "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", parents=[common],
                               help="generate one hospital report")
    demo.add_argument("--scale", default="tiny",
                      choices=["tiny", "small", "medium", "large"])
    demo.add_argument("--date", default=None)
    demo.add_argument("--mbps", type=_positive_number, default=1.0)
    demo.add_argument("--no-merge", action="store_true")
    demo.add_argument("--shards", type=_positive_int, default=1, metavar="N",
                      help="evaluate in N worker processes by key-range "
                           "document partitioning (default 1 = off; see "
                           "docs/SHARDING.md)")
    demo.add_argument("--trace", default=None, metavar="FILE",
                      help="write a Chrome trace-event JSON of the run "
                           "(Perfetto / chrome://tracing)")
    demo.add_argument("--metrics", action="store_true",
                      help="print the metrics/span summary after the run")
    demo.add_argument("--metrics-json", default=None, metavar="FILE",
                      help="write counters/gauges/span rollups as JSON")
    demo.add_argument("--prometheus", default=None, metavar="FILE",
                      help="write metrics in the Prometheus text "
                           "exposition format")
    demo.add_argument("--ledger", default=None, metavar="FILE",
                      help="append one JSONL run record per evaluation "
                           "(see docs/OBSERVABILITY.md)")
    demo.add_argument("--faults", default=None, metavar="SPEC",
                      type=_faults_value,
                      help="inject deterministic faults, e.g. "
                           "'DB2:error@3,DB1:slow@2:0.05' "
                           "(see docs/RESILIENCE.md)")
    demo.add_argument("--deadline", type=float, default=None, metavar="S",
                      help="per-query deadline in seconds")
    demo.add_argument("--incremental", action="store_true",
                      help="enable the cross-evaluation result cache and "
                           "re-evaluate once warm to show the reuse "
                           "(see docs/INCREMENTAL.md)")
    demo.add_argument("--xml", action="store_true",
                      help="print the generated document")
    demo.set_defaults(handler=_demo)

    calibrate = commands.add_parser(
        "calibrate", parents=[common],
        help="modeled vs. measured cost per QDG node (Section 5 cost "
             "model validation)")
    calibrate.add_argument("--scale", default="tiny",
                           choices=["tiny", "small", "medium", "large"])
    calibrate.add_argument("--date", default=None)
    calibrate.add_argument("--mbps", type=_positive_number, default=1.0)
    calibrate.add_argument("--no-merge", action="store_true")
    calibrate.add_argument("--json", default=None, metavar="FILE",
                           help="also write the report as JSON")
    calibrate.set_defaults(handler=_calibrate)

    profile = commands.add_parser(
        "profile", parents=[common],
        help="EXPLAIN ANALYZE: evaluate under measurement, print est vs "
             "measured per plan node")
    profile.add_argument("--scale", default="tiny",
                         choices=["tiny", "small", "medium", "large"])
    profile.add_argument("--date", default=None)
    profile.add_argument("--mbps", type=_positive_number, default=1.0)
    profile.add_argument("--no-merge", action="store_true")
    profile.add_argument("--runs", type=_positive_int, default=1,
                         metavar="N",
                         help="evaluate N times on one middleware "
                              "(default 1)")
    profile.add_argument("--ledger", default=None, metavar="FILE",
                         help="append one JSONL run record per evaluation")
    profile.add_argument("--prometheus", default=None, metavar="FILE",
                         help="write metrics in the Prometheus text "
                              "exposition format")
    profile.add_argument("--metrics", action="store_true",
                         help="print the metrics/span summary")
    profile.add_argument("--metrics-json", default=None, metavar="FILE")
    profile.add_argument("--json", default=None, metavar="FILE",
                         help="write the last run's profile as JSON")
    profile.set_defaults(handler=_profile)

    check = commands.add_parser(
        "check", parents=[common],
        help="cross-path equivalence + conformance check")
    check.add_argument("--scale", default="tiny",
                       choices=["tiny", "small", "medium", "large"])
    check.set_defaults(handler=_check)

    explain = commands.add_parser(
        "explain", parents=[common],
        help="print the optimizer's plan for the hospital AIG")
    explain.add_argument("--scale", default="tiny",
                         choices=["tiny", "small", "medium", "large"])
    explain.add_argument("--depth", type=int, default=3)
    explain.add_argument("--no-merge", action="store_true")
    explain.add_argument("--incremental", action="store_true",
                         help="evaluate once with the result cache on and "
                              "show per-node cached/tainted state")
    explain.add_argument("--analyze", action="store_true",
                         help="EXPLAIN ANALYZE: evaluate and annotate the "
                              "plan with measured rows/seconds + q-error")
    explain.set_defaults(handler=_explain)

    fuzz = commands.add_parser(
        "fuzz", parents=[common],
        help="differential fuzzing: random AIGs through the full "
             "configuration grid (see docs/TESTING.md)")
    fuzz.add_argument("--seeds", type=int, default=20, metavar="N",
                      help="number of seeded scenarios to run (default 20)")
    fuzz.add_argument("--start", type=int, default=0, metavar="N",
                      help="first seed (default 0)")
    fuzz.add_argument("--violate-every", type=int, default=5, metavar="N",
                      help="make every Nth scenario violation-injected "
                           "(default 5; 0 = never)")
    fuzz.add_argument("--seed-file", default=None, metavar="FILE",
                      help="re-run the oracle on a saved repro file "
                           "instead of generating scenarios")
    fuzz.add_argument("--shrink", action="store_true",
                      help="minimize any diverging scenario before "
                           "writing its repro file")
    fuzz.add_argument("--out", default="fuzz-repros", metavar="DIR",
                      help="directory for repro artifacts "
                           "(default fuzz-repros/)")
    fuzz.set_defaults(handler=_fuzz)

    serve = commands.add_parser(
        "serve", parents=[common],
        help="run the long-lived multi-tenant evaluation service "
             "(docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750,
                       help="listen port (0 = ephemeral; default 8750)")
    serve.add_argument("--scale", default="tiny",
                       choices=["tiny", "small", "medium", "large"],
                       help="dataset scale for the pre-registered "
                            "hospital tenant")
    serve.add_argument("--no-merge", action="store_true")
    serve.add_argument("--no-incremental", action="store_true",
                       help="disable the cross-request result cache "
                            "(every request re-executes)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="per-tenant concurrent evaluation quota "
                            "(default 8)")
    serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                       help="per-tenant admission queue beyond the quota; "
                            "overflow gets 429 (default 64)")
    serve.add_argument("--max-tenants", type=int, default=None, metavar="N",
                       help="evict the least-recently-used tenant beyond "
                            "N registered (default: unbounded)")
    serve.add_argument("--tenant-ttl", type=float, default=None,
                       metavar="S",
                       help="evict tenants idle for more than S seconds "
                            "(default: never)")
    serve.add_argument("--ledger", default=None, metavar="FILE",
                       help="append one JSONL run record per evaluation")
    serve.set_defaults(handler=_serve)

    info = commands.add_parser("info", parents=[common],
                               help="version and components")
    info.set_defaults(handler=_info)

    args = parser.parse_args(argv)
    from repro.obs.logconfig import configure_logging
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    from repro.errors import ReproError
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
