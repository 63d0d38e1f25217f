"""Command-line interface: ``omnisim <command>`` (or ``python -m repro``).

Commands:

* ``list`` — enumerate the registered benchmark designs;
* ``run <design> [--sim omnisim|cosim|csim|lightningsim|omnisim-threads]
  [--executor compiled|interp] [--depth fifo=N ...]`` — simulate a design
  and print its outputs;
* ``classify <design>`` — Type A/B/C taxonomy analysis;
* ``report <design>`` — static C-synthesis report per module;
* ``gen --type A|B|C [--modules N] [--seed S]`` — emit a procedurally
  generated design spec (YAML), or a whole corpus with ``--batch``;
* ``dse <design> --range fifo=LO:HI [--grid fifo=V1,V2] [--samples N]
  [--jobs J] [--json FILE]`` — depth-space exploration: sweep FIFO depth
  configurations through the incremental path (with full-simulation
  fallback) and report the cycles-vs-buffer-area Pareto frontier;
* ``trace info|verify|gc [--cache-dir DIR]`` — inspect, validate or
  clean the on-disk trace-artifact cache (captured baselines reused
  across processes; see ``--trace-cache`` on ``run``/``dse`` and the
  ``REPRO_TRACE_CACHE`` environment variable);
* ``serve [--host H] [--port P] [--workers N]`` — simulation as a
  service: an asyncio HTTP/JSON server multiplexing concurrent clients
  over pooled warm Session baselines (see ``repro.service`` and
  DESIGN.md section 18).

Wherever a ``<design>`` argument is accepted it may be a registry name
(``repro list``), a benchmark-group alias (``typea_large``), or a path
to a declarative spec file (``examples/fig4_ex1.yaml``, see
``repro.designs.dsl``); ``dse`` additionally accepts a directory of
specs and sweeps each in turn.

Exit codes for ``run``: 0 success, 2 deadlock, 3 unsupported design,
4 simulated failure (e.g. the C-sim baseline's SIGSEGV).  Any command: 1
with one stderr line for a refused request.  This module owns argument
*syntax* and *combinations* (its ``SystemExit`` sites); a value rule is
the consuming library object's, a typed error here (DESIGN.md section 13).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import designs
from .api import Session
from .errors import (
    EXIT_BROKEN_PIPE,
    EXIT_DIVERGENCE,
    EXIT_INTERRUPTED,
    EXIT_SIM_FAILURE,
    DeadlockError,
    OutdatedTraceError,
    ReproError,
    UnsupportedDesignError,
    exit_code_for,
)
from .sim import EXECUTORS, engine_names


def _parse_depths(pairs) -> dict:
    """``FIFO=N`` pairs as a depth map — syntax only: which names and
    values a design accepts is the engine layer's to say."""
    depths = {}
    for pair in pairs or []:
        match = re.fullmatch(r"([^=]+)=([+-]?\d+)", pair)
        if match is None:
            raise SystemExit(f"--depth expects FIFO=N with an integer N, "
                             f"got {pair!r}")
        depths[match[1]] = int(match[2])
    return depths


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path}")


def cmd_list(_args) -> int:
    from .analysis import render_table

    rows = [
        (spec.name, spec.design_type, spec.blocking,
         "cyclic" if spec.cyclic else "acyclic", spec.description)
        for spec in designs.all_specs()
    ]
    print(render_table(
        ["design", "type", "access", "graph", "description"], rows
    ))
    return 0


def cmd_run(args) -> int:
    # All resolve/compile/validate wiring lives in the Session + engine
    # registry: unknown FIFO names raise a clean UnknownFifoError (exit
    # 1 via the ReproError handler in main), and depths passed to an
    # engine that cannot honour them (csim) surface as a result warning.
    session = Session.open(args.design, executor=args.executor,
                           trace_cache=args.trace_cache)
    depths = _parse_depths(args.depth)
    try:
        if session.trace_store is not None and args.sim == "omnisim":
            # Repeat runs skip recapture: the baseline loads from the
            # content-addressed cache and depth overrides replay
            # incrementally (full-run fallback on divergence, or when
            # the declared depths deadlock).
            if depths:
                from .api.batch import serve_depths

                result = serve_depths(session, depths)
            else:
                result = session.baseline()
        else:
            result = session.run(engine=args.sim, depths=depths)
    except DeadlockError as exc:
        print(f"DEADLOCK DETECTED: {exc}")
        return exit_code_for(exc)
    except UnsupportedDesignError as exc:
        print(f"UNSUPPORTED: {exc}")
        return exit_code_for(exc)
    print(f"design     : {result.design_name}")
    print(f"simulator  : {result.simulator}")
    capture = result.phase_seconds.get("capture")
    if capture is not None:
        serving = result.phase_seconds.get("serving", "baseline")
        print(f"trace      : {capture}-capture baseline ({serving})")
    if result.failure:
        print(f"failure    : {result.failure}")
    # Always printed: 0 is a legitimate cycle count (e.g. csim reports
    # no timing), and hiding it made failures look like truncated output.
    print(f"cycles     : {result.cycles}")
    for name, value in sorted(result.scalars.items()):
        print(f"output     : {name} = {value}")
    for warning in result.warnings[:10]:
        print(f"warning    : {warning}")
    if len(result.warnings) > 10:
        print(f"           ... and {len(result.warnings) - 10} more")
    print(f"events     : {result.stats.events}"
          f"  (queries: {result.stats.queries})")
    print(f"frontend   : {result.frontend_seconds:.3f} s")
    print(f"execution  : {result.execute_seconds:.3f} s")
    return EXIT_SIM_FAILURE if result.failure else 0


def cmd_dse(args) -> int:
    from .analysis import render_table
    from .dse import DepthSpace, explore, explore_specs

    specs = list(args.ranges or []) + list(args.grids or [])
    if not specs:
        raise SystemExit(
            "dse needs at least one --range FIFO=LO:HI[:STEP] or "
            "--grid FIFO=V1,V2,..."
        )
    if args.resume and not args.checkpoint:
        raise SystemExit("dse --resume requires --checkpoint FILE")
    space = DepthSpace.parse(specs)
    kwargs = dict(samples=args.samples, seed=args.seed, jobs=args.jobs,
                  timeout=args.timeout, max_retries=args.max_retries,
                  strategy=args.strategy, max_evals=args.max_evals)
    # Directory-sweep mode only when the argument cannot mean a registry
    # design — a stray local directory must not shadow a design name.
    known_name = (args.design in designs.ALIASES
                  or args.design in designs.names())
    if os.path.isdir(args.design) and not known_name:
        if args.checkpoint:
            # One journal is keyed to one sweep's identity; a directory
            # sweep is many sweeps.
            raise SystemExit("dse --checkpoint applies to a single "
                             "design sweep, not a spec directory")
        return _dse_directory(args, space, explore_specs, kwargs)
    with Session.open(args.design, executor=args.executor,
                      trace_cache=args.trace_cache) as session:
        sweep = explore(session, space, checkpoint=args.checkpoint,
                        resume=args.resume, **kwargs)

    print(f"design     : {sweep.design}")
    print(f"space      : {', '.join(space.fifos)}"
          f"  ({sweep.space_size} configurations)")
    print(f"evaluated  : {sweep.evaluated}"
          f"  (jobs: {sweep.jobs})")
    print(f"incremental: {sweep.incremental_count}"
          f"  ({100 * sweep.incremental_fraction:.1f}%)")
    modes = sweep.mode_counts
    if modes:
        print("modes      : " + ", ".join(
            f"{mode}={count}" for mode, count in sorted(modes.items())))
    search = sweep.search
    if search:
        budget = search["evals"]["budget"]
        parts = [
            f"strategy={search['strategy']}",
            f"rounds={len(search['rounds'])}",
            f"evals={search['evals']['spent']}"
            + (f"/{budget}" if budget is not None else ""),
        ]
        pruned = (search.get("pruned_regions", 0)
                  + search.get("deadlock_pruned_regions", 0))
        if pruned:
            skipped = (search.get("pruned_configs", 0)
                       + search.get("deadlock_pruned_configs", 0))
            parts.append(f"pruned={pruned} regions ({skipped} configs)")
        parts.append("converged=" + ("yes" if search["converged"]
                                     else f"no ({search['stopped']})"))
        print("search     : " + ", ".join(parts))
    print(f"full resim : {sweep.full_count}")
    if sweep.deadlock_count:
        print(f"deadlocked : {sweep.deadlock_count}")
    if sweep.quarantined_count:
        print(f"quarantined: {sweep.quarantined_count}")
    sup = sweep.supervision or {}
    if sup.get("resumed"):
        print(f"resumed    : {sup['resumed']} configs from "
              f"{sup['checkpoint']}")
    if sup.get("retries") or sup.get("respawns"):
        print(f"supervision: {sup['retries']} retries, "
              f"{sup['respawns']} pool respawns, "
              f"{sup['timeouts']} timeouts, {sup['crashes']} crashes")
    print(f"base       : cycles={sweep.base_cycles} depths="
          + ",".join(f"{k}={v}" for k, v in sorted(
              sweep.base_depths.items())))
    print(f"throughput : {sweep.configs_per_sec:,.1f} configs/s"
          f"  ({sweep.seconds:.3f} s sweep"
          f" + {sweep.capture_seconds:.3f} s {sweep.capture} capture)")

    pareto = sweep.pareto()
    rows = [
        (",".join(f"{f}={p.depths[f]}" for f in space.fifos),
         p.cycles, p.buffer_bits, p.source)
        for p in pareto
    ]
    print()
    print(render_table(
        ["depths", "cycles", "buffer bits", "via"], rows,
        title="Pareto frontier (cycles vs FIFO buffer bits)",
    ))
    if args.json_out:
        _write_json(args.json_out, sweep.to_json())
    return 0


def _dse_directory(args, space, explore_specs, kwargs) -> int:
    """Sweep every spec file in a directory; one summary row per spec."""
    from .analysis import render_table

    outcomes = explore_specs(args.design, space, executor=args.executor,
                             trace_cache=args.trace_cache, **kwargs)
    if not outcomes:
        raise SystemExit(f"no spec files (*.yaml, *.json) in {args.design}")
    rows = []
    reports = []
    for path, outcome in outcomes:
        name = os.path.basename(path)
        if isinstance(outcome, Exception):
            rows.append((name, "-", "-", "-", f"skipped: {outcome}"))
            continue
        best = outcome.best()
        rows.append((
            name, outcome.evaluated, len(outcome.pareto()),
            best.cycles if best else "-",
            f"{100 * outcome.incremental_fraction:.0f}% incremental",
        ))
        reports.append((path, outcome))
    print(render_table(
        ["spec", "evaluated", "pareto", "best cycles", "notes"], rows,
        title=f"DSE over {len(outcomes)} specs in {args.design}",
    ))
    if args.json_out:
        _write_json(args.json_out,
                    {path: sweep.to_json() for path, sweep in reports})
    return 0


def cmd_gen(args) -> int:
    from .designs import dsl

    if args.batch is not None and args.batch < 1:
        raise SystemExit(f"gen --batch must be >= 1, got {args.batch}")
    if args.batch is not None and args.out_dir is None:
        raise SystemExit("gen --batch requires --out-dir DIR")
    if args.batch is None and args.out_dir is not None:
        raise SystemExit("gen --out-dir requires --batch K "
                         "(use --out FILE for a single spec)")
    if args.batch is not None and args.out is not None:
        raise SystemExit("gen --batch writes into --out-dir; "
                         "--out only applies to a single spec")
    if args.batch is None:
        spec = dsl.generate(args.type, modules=args.modules,
                            seed=args.seed, count=args.count)
        text = dsl.spec_to_yaml(spec)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out} ({spec.name})")
        else:
            print(text, end="")
        return 0
    if (os.path.isdir(args.out_dir) and os.listdir(args.out_dir)
            and not args.force):
        # Silently interleaving a new batch with an old one corrupts
        # corpus provenance (a dsse/fuzz run would sweep both).
        raise SystemExit(
            f"gen --batch: output dir {args.out_dir!r} is not empty; "
            f"pass --force to overwrite it or choose a fresh directory")
    if args.force and os.path.isdir(args.out_dir):
        for name in os.listdir(args.out_dir):
            if name.endswith((".yaml", ".json")):
                os.unlink(os.path.join(args.out_dir, name))
    os.makedirs(args.out_dir, exist_ok=True)
    for i in range(args.batch):
        spec = dsl.generate(args.type, modules=args.modules,
                            seed=args.seed + i, count=args.count)
        path = os.path.join(args.out_dir, f"{spec.name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dsl.spec_to_yaml(spec))
        print(f"wrote {path}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import CampaignConfig, run_campaign, run_differential

    if args.replay:
        from .designs import dsl

        spec = dsl.load_spec(args.replay)
        report = run_differential(spec, max_cycles=args.max_cycles)
        if report.divergence is None:
            print(f"replay {args.replay}: all legs agree "
                  f"({report.configs_checked} retiming configs checked)")
            return 0
        div = report.divergence
        print(f"replay {args.replay}: DIVERGENCE ({div.kind}): "
              f"{div.detail}")
        for leg, outcome in sorted(div.legs.items()):
            print(f"  {leg}: {outcome}")
        return EXIT_DIVERGENCE

    config = CampaignConfig(
        seed=args.seed, budget=args.budget, minutes=args.minutes,
        corpus_dir=args.corpus, pin_dir=args.pin_dir,
        checkpoint=args.checkpoint, resume=args.resume,
        max_cycles=args.max_cycles,
    )
    report = run_campaign(config, log=print)
    print(f"\nevaluated {report.evaluated} candidates "
          f"({report.resumed} resumed) in {report.seconds:.1f}s; "
          f"corpus {report.corpus}, "
          f"{report.coverage_edges} coverage arcs, "
          f"{report.quarantined} quarantined")
    if not report.findings:
        print("no divergence found")
        return 0
    for finding in report.findings:
        print(f"finding: {finding.kind} -> {finding.spec_path}")
        print(f"  {finding.detail}")
        print(f"  replay: python -m repro fuzz --replay "
              f"{finding.spec_path}")
    return EXIT_DIVERGENCE


def cmd_trace(args) -> int:
    import time as _time

    from .analysis import render_table
    from .trace.store import parse_size, read_header_file, resolve_store

    # ``--cache-dir`` wins, else ``REPRO_TRACE_CACHE``, else the default
    # directory: a management command never silently no-ops.
    store = resolve_store(args.cache_dir, fallback=True)
    if store is None:
        raise SystemExit("trace cache is disabled "
                         "(REPRO_TRACE_CACHE is off)")
    entries = store.entries()
    if args.trace_command == "info":
        if not entries:
            print(f"trace cache {store.root}: empty")
            return 0
        rows = []
        for entry in entries:
            design, executor, nodes = "?", "?", "?"
            try:
                meta = read_header_file(entry.path)["meta"]
                design = meta["design_name"]
                executor = meta["executor"]
                nodes = len(meta["module_names"])
            except OutdatedTraceError as exc:
                design = f"<schema {exc.schema}>"
            except Exception as exc:  # noqa: BLE001 - info must not crash
                design = f"<unreadable: {type(exc).__name__}>"
            age_h = (_time.time() - entry.mtime) / 3600.0
            rows.append((entry.digest[:12], design, executor, nodes,
                         f"{entry.size / 1024:.1f} KiB",
                         f"{age_h:.1f} h"))
        total = sum(e.size for e in entries)
        print(render_table(
            ["digest", "design", "executor", "modules", "size", "age"],
            rows, title=f"trace cache {store.root}",
        ))
        print(f"\n{len(entries)} artifact(s), {total / 1024:.1f} KiB total")
        return 0
    if args.trace_command == "verify":
        ok, outdated, corrupt = store.verify(prune=args.prune)
        for entry, design in ok:
            print(f"ok      : {entry.digest[:12]}  {design}")
        for label, found in (("outdated", outdated), ("corrupt", corrupt)):
            for entry, detail in found:
                verb = "pruned" if args.prune else label
                print(f"{verb:8}: {entry.digest[:12]}  {detail}")
        stale = f"{len(outdated)} outdated, " if outdated else ""
        print(f"verified {len(ok) + len(outdated) + len(corrupt)} "
              f"artifact(s): {len(ok)} ok, {stale}{len(corrupt)} corrupt"
              + (" (removed)" if args.prune and (outdated or corrupt)
                 else ""))
        return 1 if corrupt and not args.prune else 0
    # gc
    max_bytes = (parse_size(args.max_bytes)
                 if args.max_bytes is not None else None)
    removed, reclaimed = store.gc(older_than_days=args.older_than,
                                  max_bytes=max_bytes)
    scopes = []
    if args.older_than is not None:
        scopes.append(f"entries older than {args.older_than} day(s)")
    if max_bytes is not None:
        scopes.append(f"LRU overflow past {max_bytes} bytes")
    scope = " + ".join(scopes) if scopes else "all entries"
    print(f"trace cache {store.root}: removed {removed} artifact(s) "
          f"({reclaimed / 1024:.1f} KiB), {scope}")
    return 0


def cmd_classify(args) -> int:
    session = Session.open(args.design)
    info = session.classify()
    print(f"design          : {session.name}")
    print(f"type            : {info.design_type} "
          f"(registry label: {session.spec.design_type})")
    print(f"func sim level  : L{info.func_sim_level}")
    print(f"perf sim level  : L{info.perf_sim_level}")
    print(f"cyclic          : {info.cyclic}")
    print(f"non-blocking    : {info.has_nonblocking}")
    print(f"infinite loops  : {info.has_infinite_loop}")
    for reason in info.reasons:
        print(f"  - {reason}")
    return 0


def cmd_report(args) -> int:
    from .analysis import render_table

    session = Session.open(args.design)
    rows = [
        (row["module"], row["blocks"], row["fsm_states"],
         row["static_latency"])
        for row in session.report()
    ]
    print(render_table(
        ["module", "blocks", "fsm states", "static latency"],
        rows, title=f"C-synthesis report for {session.name}",
    ))
    print("\n('?' = latency not statically determinable; "
          "run a simulator for dynamic cycles)")
    return 0


def cmd_serve(args) -> int:
    from .service import ServiceConfig, serve
    from .trace.store import parse_size

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_body=parse_size(args.max_body),
        max_configs=args.max_configs,
        deadline=(None if args.deadline == 0 else args.deadline),
        max_inflight=args.max_inflight,
        max_sessions=args.max_sessions,
        executor=args.executor,
        trace_cache=args.trace_cache,
    )
    try:
        return serve(config)
    except KeyboardInterrupt:
        # Platforms without loop signal handlers land here; the drain
        # already ran as far as it could.
        return 0


#: design-argument help shared by every command that takes one
_DESIGN_HELP = ("registry design name (see `repro list`), group alias "
                "(e.g. typea_large), or path to a DSL spec file "
                "(*.yaml / *.json)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="omnisim",
        description="OmniSim reproduction: simulate HLS dataflow designs",
        epilog="Run `omnisim <command> --help` for a worked example of "
               "each command.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.RawDescriptionHelpFormatter
    # declared once: run, dse and serve all open Sessions
    executor_option = dict(choices=sorted(EXECUTORS), default=None,
                           help="Func Sim executor (default: compiled)")
    trace_cache_option = dict(
        metavar="DIR", default=None,
        help="enable the on-disk trace cache there: a captured baseline "
             "is reused, across processes, instead of recaptured "
             "(REPRO_TRACE_CACHE also enables it)")

    sub.add_parser(
        "list", help="list registered designs", formatter_class=fmt,
        epilog="example:\n"
               "  omnisim list        # one row per design: name, type "
               "A/B/C, access mix, graph shape",
    )

    run_parser = sub.add_parser(
        "run", help="simulate a design", formatter_class=fmt,
        epilog="examples:\n"
               "  omnisim run fig4_ex5                      "
               "# OmniSim, compiled executor\n"
               "  omnisim run fig4_ex3 --sim cosim          "
               "# cycle-stepped oracle\n"
               "  omnisim run examples/fig4_ex1.yaml        "
               "# declarative spec file\n"
               "  omnisim run fig4_ex1 --depth fifo=8       "
               "# override one FIFO depth\n\n"
               "exit codes: 0 ok, 2 deadlock, 3 unsupported design, "
               "4 simulated failure",
    )
    run_parser.add_argument("design", help=_DESIGN_HELP)
    run_parser.add_argument("--sim", choices=engine_names(cli_only=True),
                            default="omnisim",
                            help="simulation engine (default: omnisim)")
    run_parser.add_argument("--executor", **executor_option)
    run_parser.add_argument("--depth", action="append", metavar="FIFO=N",
                            help="override a FIFO depth")
    run_parser.add_argument("--trace-cache", **trace_cache_option)

    gen_parser = sub.add_parser(
        "gen", help="generate a design spec (seeded, Type A/B/C/D)",
        formatter_class=fmt,
        epilog="examples:\n"
               "  omnisim gen --type A --modules 6 --seed 3          "
               "# YAML spec on stdout\n"
               "  omnisim gen --type C --out drop.yaml               "
               "# write one spec file\n"
               "  omnisim gen --type B --batch 20 --out-dir corpus/  "
               "# seeds S..S+19\n"
               "  omnisim gen --type D --modules 300 --out huge.yaml "
               "# 'huge' family\n\n"
               "the emitted spec is a pure function of (--type, --modules, "
               "--seed, --count);\nfeed specs back through `omnisim run` / "
               "`omnisim dse`",
    )
    gen_parser.add_argument("--type", required=True,
                            choices=["A", "B", "C", "D",
                                     "a", "b", "c", "d"],
                            help="taxonomy class of the generated design "
                                 "(D = huge: fan stages, rings, NB "
                                 "lanes, AXI masters)")
    gen_parser.add_argument("--modules", type=int, default=4, metavar="N",
                            help="module count (default 4, minimum 2)")
    gen_parser.add_argument("--seed", type=int, default=0,
                            help="generator seed (default 0)")
    gen_parser.add_argument("--count", type=int, default=64, metavar="N",
                            help="elements pushed through the pipeline "
                                 "(default 64)")
    gen_parser.add_argument("--out", metavar="FILE", default=None,
                            help="write the spec here instead of stdout")
    gen_parser.add_argument("--batch", type=int, default=None, metavar="K",
                            help="emit K specs (seeds SEED..SEED+K-1) "
                                 "into --out-dir")
    gen_parser.add_argument("--out-dir", metavar="DIR", default=None,
                            help="output directory for --batch")
    gen_parser.add_argument("--force", action="store_true",
                            help="with --batch: overwrite a non-empty "
                                 "--out-dir (old *.yaml/*.json are "
                                 "removed; without this flag a "
                                 "non-empty directory is refused)")

    dse_parser = sub.add_parser(
        "dse", help="depth-space exploration (FIFO depth sweep)",
        formatter_class=fmt,
        description="Sweep FIFO depth configurations and report the "
                    "cycles-vs-buffer-bits Pareto frontier.\n\n"
                    "Evaluation is incremental-first: each configuration "
                    "retimes the captured simulation\ngraph and re-checks "
                    "the recorded query constraints in microseconds. "
                    "When a depth\nchange flips a constraint (or makes "
                    "the graph cyclic), the recorded execution is\n"
                    "invalid there, so the explorer replays the capture "
                    "of the configuration\nbefore it, else falls back to "
                    "one full OmniSim re-simulation. True\ndeadlocks are "
                    "recorded as points without a cycle count. The "
                    "report's\n"
                    "`incremental:` / `full resim:` lines show how often "
                    "each path ran.",
        epilog="examples:\n"
               "  omnisim dse fig4_ex5 --range fifo1=1:8 --range "
               "fifo2=1:8\n"
               "  omnisim dse examples/fig4_ex1.yaml --range fifo=2:16\n"
               "  omnisim dse corpus/ --range f0=1:8 --samples 4   "
               "# every spec in the directory\n"
               "  omnisim dse typea_large --range sc=1:64 --samples 16 "
               "--jobs 4 --json sweep.json",
    )
    dse_parser.add_argument(
        "design",
        help=_DESIGN_HELP + ", or a directory of spec files to sweep "
             "one by one",
    )
    dse_parser.add_argument("--range", action="append", dest="ranges",
                            metavar="FIFO=LO:HI[:STEP]",
                            help="sweep a FIFO over an inclusive range")
    dse_parser.add_argument("--grid", action="append", dest="grids",
                            metavar="FIFO=V1,V2,...",
                            help="sweep a FIFO over explicit depths")
    dse_parser.add_argument("--samples", type=int, default=None,
                            metavar="N",
                            help="evaluate N seeded random configurations "
                                 "instead of the full grid")
    dse_parser.add_argument("--seed", type=int, default=0,
                            help="sampling seed (default 0)")
    dse_parser.add_argument("--jobs", type=int, default=1, metavar="J",
                            help="shard configurations over J processes")
    dse_parser.add_argument("--executor", **executor_option)
    dse_parser.add_argument("--json", dest="json_out", metavar="FILE",
                            default=None,
                            help="write the full sweep result as JSON")
    dse_parser.add_argument("--trace-cache", **trace_cache_option)
    dse_parser.add_argument("--checkpoint", metavar="FILE", default=None,
                            help="journal completed configurations to "
                                 "FILE (append-only JSONL) so an "
                                 "interrupted sweep can be resumed")
    dse_parser.add_argument("--resume", action="store_true",
                            help="resume from an existing --checkpoint "
                                 "journal: already-completed "
                                 "configurations are not re-evaluated")
    dse_parser.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-chunk wall-clock deadline; hung "
                                 "workers are killed and their configs "
                                 "retried (default: no limit)")
    dse_parser.add_argument("--max-retries", type=int, default=3,
                            metavar="N",
                            help="failures one configuration may accrue "
                                 "before it is quarantined (default 3)")
    dse_parser.add_argument("--strategy", default=None,
                            choices=("exhaustive", "refine", "random"),
                            help="how to cover the space: exhaustive "
                                 "(default; enumerate or --samples), "
                                 "refine (Pareto-guided successive "
                                 "refinement with dominated-region "
                                 "pruning), random (seeded restarts)")
    dse_parser.add_argument("--max-evals", type=int, default=None,
                            metavar="N",
                            help="evaluate at most N configurations: "
                                 "adaptive strategies stop at the "
                                 "budget; exhaustive degrades to a "
                                 "seeded N-sample")

    trace_parser = sub.add_parser(
        "trace", help="inspect / manage the on-disk trace cache",
        formatter_class=fmt,
        description="Manage the content-addressed trace-artifact cache "
                    "(captured OmniSim baselines, reused across "
                    "processes).\n\nEntries are keyed by a SHA-256 over "
                    "the design source, builder params, Func Sim "
                    "executor and schema version, so editing a design "
                    "or changing a parameter never serves stale data — "
                    "old keys just linger until `trace gc`.  Corrupt "
                    "files are detected by checksum and fall back to "
                    "fresh capture at load time.",
        epilog="examples:\n"
               "  omnisim run fig4_ex5 --trace-cache ~/.cache/repro-trace"
               "   # capture once ...\n"
               "  omnisim run fig4_ex5 --trace-cache ~/.cache/repro-trace"
               "   # ... warm reuse\n"
               "  omnisim trace info\n"
               "  omnisim trace verify --prune\n"
               "  omnisim trace gc --older-than 7",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument("--cache-dir", metavar="DIR", default=None,
                           help="cache directory (default: "
                                "REPRO_TRACE_CACHE or ~/.cache/repro-trace)")
    trace_sub.add_parser("info", help="list cached artifacts",
                         formatter_class=fmt, parents=[cache_dir])
    trace_verify = trace_sub.add_parser(
        "verify", help="checksum-validate every cached artifact",
        formatter_class=fmt, parents=[cache_dir])
    trace_verify.add_argument("--prune", action="store_true",
                              help="delete artifacts that fail "
                                   "validation")
    trace_gc = trace_sub.add_parser(
        "gc", help="delete cached artifacts", formatter_class=fmt,
        parents=[cache_dir])
    trace_gc.add_argument("--older-than", type=float, metavar="DAYS",
                          default=None,
                          help="only delete artifacts older than DAYS "
                               "(default: all)")
    trace_gc.add_argument("--max-bytes", metavar="N[K|M|G]", default=None,
                          help="size-bound the cache: evict least-"
                               "recently-used artifacts until the rest "
                               "fit in N bytes")

    fuzz_parser = sub.add_parser(
        "fuzz", help="coverage-guided differential fuzzing of the "
                     "engines",
        formatter_class=fmt,
        description="Mutate generated design specs and run each "
                    "candidate through the differential legs of "
                    "repro.fuzz.differential: engine (OmniSim compiled "
                    "vs interpreted vs the cosim oracle), retiming "
                    "(incremental re-simulation vs a full run, per "
                    "depth configuration) and batch (vectorized rows vs "
                    "scalar answers).  Candidates that "
                    "exercise new engine code arcs join the corpus; "
                    "divergences are auto-minimized and pinned as "
                    "replayable regression specs.",
        epilog="examples:\n"
               "  omnisim fuzz --budget 60 --seed 0\n"
               "  omnisim fuzz --minutes 5 --pin-dir tests/regressions\n"
               "  omnisim fuzz --budget 500 --checkpoint fuzz.ckpt "
               "--resume\n"
               "  omnisim fuzz --replay tests/regressions/"
               "pin_engine_0123456789.yaml\n\n"
               "exit codes: 0 all legs agree, 5 divergence found",
    )
    fuzz_parser.add_argument("--budget", type=int, default=200,
                             metavar="N",
                             help="candidate evaluations to spend "
                                  "(default 200)")
    fuzz_parser.add_argument("--minutes", type=float, default=None,
                             metavar="M",
                             help="wall-clock budget; stops early even "
                                  "if --budget remains")
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="campaign seed (default 0); the same "
                                  "seed replays the same candidates")
    fuzz_parser.add_argument("--corpus", metavar="DIR", default=None,
                             help="extra seed specs (*.yaml/*.json) to "
                                  "fuzz from, e.g. a `gen --batch` dir")
    fuzz_parser.add_argument("--pin-dir", metavar="DIR",
                             default="fuzz_pins",
                             help="where minimized regression specs are "
                                  "pinned (default: fuzz_pins/)")
    fuzz_parser.add_argument("--checkpoint", metavar="FILE", default=None,
                             help="journal candidate verdicts to FILE "
                                  "so an interrupted campaign can be "
                                  "resumed")
    fuzz_parser.add_argument("--resume", action="store_true",
                             help="replay verdicts from --checkpoint "
                                  "instead of re-simulating them")
    fuzz_parser.add_argument("--max-cycles", type=int, default=200_000,
                             metavar="N",
                             help="cosim livelock guard per candidate "
                                  "(default 200000)")
    fuzz_parser.add_argument("--replay", metavar="SPEC", default=None,
                             help="run the differential on one pinned "
                                  "spec and exit (0 agree / 5 diverge)")

    classify_parser = sub.add_parser(
        "classify", help="taxonomy analysis (Type A/B/C)",
        formatter_class=fmt,
        epilog="example:\n"
               "  omnisim classify fig4_ex2   # Type B: NB accesses, "
               "timing-dependent control only",
    )
    classify_parser.add_argument("design", help=_DESIGN_HELP)

    report_parser = sub.add_parser(
        "report", help="static C-synthesis report", formatter_class=fmt,
        epilog="example:\n"
               "  omnisim report fig4_ex5   # per-module FSM states and "
               "static latency ('?' = dynamic)",
    )
    report_parser.add_argument("design", help=_DESIGN_HELP)

    serve_parser = sub.add_parser(
        "serve", help="simulation as a service (async HTTP/JSON "
                      "server)",
        formatter_class=fmt,
        description="Run the asyncio HTTP/JSON simulation service: "
                    "POST /v1/run, /v1/sweep, /v1/classify and "
                    "/v1/report accept a registry design name or an "
                    "inline DSL spec; concurrent requests for the same "
                    "design share one pooled warm baseline (exactly "
                    "one compile+capture per design, params and "
                    "executor).  GET /healthz and /v1/meta report "
                    "liveness and pool statistics.  SIGTERM drains "
                    "gracefully and exits 0.",
        epilog="examples:\n"
               "  omnisim serve --port 8080 --workers 4\n"
               "  curl -s localhost:8080/v1/run -d "
               "'{\"design\": \"fig4_ex5\"}'\n"
               "  curl -s localhost:8080/v1/sweep -d '{\"design\": "
               "\"fig4_ex5\", \"space\": [\"fifo2=1:8\"]}'\n\n"
               "--port 0 picks a free port (printed on the "
               "'listening on' line)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1; "
                                   "this server is unauthenticated — "
                                   "expose it deliberately)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="TCP port (default 8080; 0 = pick a "
                                   "free port)")
    serve_parser.add_argument("--workers", type=int, default=4,
                              metavar="N",
                              help="worker threads for CPU-bound "
                                   "evaluation (default 4)")
    serve_parser.add_argument("--max-body", metavar="N[K|M|G]",
                              default="2M",
                              help="request body size limit; larger "
                                   "bodies get HTTP 413 (default 2M)")
    serve_parser.add_argument("--max-configs", type=int, default=4096,
                              metavar="N",
                              help="most configurations one sweep "
                                   "request may evaluate (default "
                                   "4096; beyond it HTTP 413)")
    serve_parser.add_argument("--deadline", type=float, default=120.0,
                              metavar="SECONDS",
                              help="default + maximum per-request "
                                   "wall-clock deadline; expiry is "
                                   "HTTP 504 (default 120; 0 = no "
                                   "limit)")
    serve_parser.add_argument("--max-inflight", type=int, default=64,
                              metavar="N",
                              help="concurrent in-flight request "
                                   "limit; beyond it HTTP 429 "
                                   "(default 64)")
    serve_parser.add_argument("--max-sessions", type=int, default=32,
                              metavar="N",
                              help="warm sessions kept pooled (LRU "
                                   "eviction beyond it; default 32)")
    serve_parser.add_argument("--executor", **executor_option)
    serve_parser.add_argument("--trace-cache", **trace_cache_option)

    args = parser.parse_args(argv)
    try:
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # The reader went away (`repro list | head -1`): say nothing, and
        # point stdout at devnull so the exit flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ReproError, OSError) as exc:
        # Includes UnknownDesignError: registry lookups report a hint
        # listing every valid name and alias.  The exit code comes from
        # the same errors.STATUS_TABLE the HTTP service maps statuses
        # from (deadlock/unsupported are already handled inside cmd_run
        # with their richer messages).  An OSError (an unwritable
        # --json / --checkpoint / --out path, a port in use) is unmapped
        # there: exit 1, the same one line, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except KeyboardInterrupt:
        # Flush any open checkpoint journal before going down so the
        # interrupted sweep stays resumable, then exit with the
        # conventional SIGINT status.
        from .exec.journal import close_active_journals

        flushed = close_active_journals()
        for path in flushed:
            print(f"interrupted: checkpoint journal flushed to {path}",
                  file=sys.stderr)
        if not flushed:
            print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
