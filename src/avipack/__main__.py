"""Command-line entry point: reproduce the paper's headline results.

Usage::

    python -m avipack            # Fig. 10 table + headline claims
    python -m avipack fig10      # just the Fig. 10 series
    python -m avipack claims     # just the SIV.A claims
    python -m avipack nanopack   # the NANOPACK TIM results
    python -m avipack qual       # the virtual qualification campaign
    python -m avipack sweep --journal sweep.jsonl        # durable sweep
    python -m avipack sweep --journal sweep.jsonl --resume  # continue it
    python -m avipack sweep --store-dir results/ \\
        --report-json report.json     # columnar store + JSON report
    python -m avipack results --store results/   # store analytics
    python -m avipack compact --journal sweep.jsonl \\
        --store results/              # crash-safe space reclamation
    python -m avipack serve --socket /tmp/avipack.sock \\
        --journal-dir jobs/                     # resilient job server
"""

from __future__ import annotations

import argparse
import os
import sys


def _print_fig10() -> None:
    from .experiments.cosee import fig10_curves

    curves = fig10_curves()
    print("Fig. 10 - Tpcb1 - Tair [K] vs SEB power [W]")
    print(f"{'P [W]':>6} {'no LHP':>8} {'LHP horiz':>10} "
          f"{'LHP 22deg':>10}")
    without = dict(curves["without_lhp"])
    horizontal = dict(curves["with_lhp_horizontal"])
    tilted = dict(curves["with_lhp_tilt22"])
    for power in sorted(horizontal):
        no_lhp = f"{without[power]:8.1f}" if power in without \
            else "       -"
        print(f"{power:6.0f} {no_lhp} {horizontal[power]:10.1f} "
              f"{tilted[power]:10.1f}")


def _print_claims() -> None:
    from .experiments.cosee import measure_claims, \
        measure_composite_claims

    aluminum = measure_claims()
    composite = measure_composite_claims()
    print("SIV.A claims (paper -> model):")
    print(f"  capability increase (Al)   : +150 %  -> "
          f"+{aluminum.capability_increase_pct:.0f} %")
    print(f"  PCB drop at 40 W (Al)      :   32 K  -> "
          f"{aluminum.temperature_drop_at_40w:.1f} K")
    print(f"  LHP power at capability    :   58 W  -> "
          f"{aluminum.lhp_heat_at_capability:.1f} W")
    print(f"  capability increase (CFRP) :  +80 %  -> "
          f"+{composite.capability_increase_pct:.0f} %")
    print(f"  PCB drop at 40 W (CFRP)    :   20 K  -> "
          f"{composite.temperature_drop_at_40w:.1f} K")


def _print_nanopack() -> None:
    from .experiments.nanopack import design_nanopack_adhesives, \
        hnc_interface_study

    print("SIV.B NANOPACK adhesive designs:")
    for design in design_nanopack_adhesives():
        print(f"  {design.name:<28} {design.filler_loading * 100:5.1f} "
              f"vol% -> {design.achieved_conductivity:5.2f} W/m.K")
    passing = [s for s in hnc_interface_study() if s.meets_target_hnc]
    print(f"  interfaces meeting <5 K.mm2/W @ <20 um (HNC): "
          f"{', '.join(s.material_name for s in passing)}")


def _print_qualification() -> None:
    from .core.qualification import run_campaign
    from .core.report import render_qualification_report
    from .environments.profiles import cosee_campaign
    from .experiments.cosee import seb_under_test

    report = run_campaign(seb_under_test(power=40.0), cosee_campaign())
    print(render_qualification_report(report))


def _report_json_payload(report, top: int) -> dict:
    """Machine-readable projection of a sweep report (ranked top-k)."""
    ranking = [
        {
            "position": position,
            "index": result.index,
            "fingerprint": result.fingerprint,
            "label": result.candidate.label,
            "cost_rank": result.cost_rank,
            "worst_board_c": result.worst_board_c,
            "thermal_headroom_c": result.thermal_headroom_c,
        }
        for position, result in enumerate(report.top(top), start=1)]
    payload = {
        "n_candidates": report.n_candidates,
        "n_compliant": report.n_compliant,
        "n_failures": len(report.failures),
        "mode": report.mode,
        "workers": report.workers,
        "wall_time_s": report.wall_time_s,
        "ranking": ranking,
    }
    if report.durability is not None:
        payload["durability"] = {
            "journal_path": report.durability.journal_path,
            "n_resumed": report.durability.n_resumed,
            "n_recomputed": report.durability.n_recomputed,
            "n_quarantined": report.durability.n_quarantined,
            "n_audit_failures": report.durability.n_audit_failures,
        }
    if report.result_store is not None:
        payload["result_store"] = {
            "directory": report.result_store.directory,
            "rows_added": report.result_store.rows_added,
            "shards_sealed": report.result_store.shards_sealed,
        }
    return payload


def _run_sweep(argv) -> int:
    """``python -m avipack sweep`` — a durable design-space campaign.

    Exit codes: 0 — sweep finished with compliant candidates; 1 —
    sweep finished but nothing complied; 2 — usage error; 3 — the
    ``--resume`` journal is unusable (missing, unreadable, every record
    quarantined, or a line at a schema this release does not read).
    The quarantine advice, which offers to start afresh, is printed
    only beside a ``.quarantine`` sidecar and never for a schema
    refusal: that journal is intact and its upgrade command is in the
    error.
    """
    import json

    from .durability.files import atomic_write
    from .errors import JournalError
    from .sweep import DesignSpace, SweepRunner, render_sweep_document

    parser = argparse.ArgumentParser(
        prog="python -m avipack sweep",
        description="Run (or resume) a journalled standard-tradeoff "
                    "design-space sweep.")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="write-ahead journal path (enables "
                             "crash-safe resume)")
    parser.add_argument("--resume", action="store_true",
                        help="resume the campaign recorded in --journal "
                             "instead of starting fresh")
    parser.add_argument("--sample", type=int, metavar="N", default=None,
                        help="evaluate a seeded N-candidate sub-sample "
                             "of the grid instead of the full space")
    parser.add_argument("--seed", type=int, default=0,
                        help="sample seed (default 0)")
    parser.add_argument("--serial", action="store_true",
                        help="force the serial execution path")
    parser.add_argument("--top", type=int, default=10,
                        help="ranked-table length (default 10)")
    parser.add_argument("--store-dir", metavar="DIR", default=None,
                        help="columnar result-store directory: stream "
                             "every outcome into compressed shards "
                             "for zero-unpickle analytics "
                             "(python -m avipack results)")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="additionally publish the ranked report "
                             "as JSON at PATH (atomic write)")
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")

    space = DesignSpace.standard_tradeoff()
    candidates = (space.sample(args.sample, seed=args.seed)
                  if args.sample is not None else space)
    runner = SweepRunner(parallel=not args.serial,
                         result_store=args.store_dir)
    if args.resume:
        try:
            report = runner.resume(args.journal)
        except JournalError as exc:
            sidecar = f"{args.journal}.quarantine"
            advice = ""
            if exc.reason != "schema" and os.path.exists(sidecar):
                advice = (f"\nDamaged records are quarantined to {sidecar}."
                          " A journal with no usable records cannot be"
                          " resumed: restore it from a backup, or re-run"
                          " without --resume to start fresh.")
            print(f"error: cannot resume from {args.journal}: {exc}"
                  f"{advice}", file=sys.stderr)
            return 3
    else:
        report = runner.run(candidates, journal_path=args.journal)
    if args.report_json is not None:
        document = json.dumps(_report_json_payload(report, args.top),
                              indent=2, sort_keys=True) + "\n"
        atomic_write(args.report_json, document.encode("ascii"))
    print(render_sweep_document(report, top=args.top))
    return 0 if report.n_compliant else 1


def _run_results(argv) -> int:
    """``python -m avipack results`` — analytics over a result store.

    Everything is computed from the store's typed columns (no outcome
    payload is unpickled).  Exit codes: 0 — store served and holds
    compliant candidates; 1 — store served but nothing complied; 2 —
    usage error or missing/unreadable store.
    """
    from .errors import InputError, ResultStoreError
    from .results import ResultStore, render_store_report

    parser = argparse.ArgumentParser(
        prog="python -m avipack results",
        description="Render zero-unpickle analytics for a columnar "
                    "result store written by `sweep --store-dir`.")
    parser.add_argument("--store", metavar="DIR", required=True,
                        help="result-store directory")
    parser.add_argument("--top", type=int, default=10,
                        help="ranked-table length (default 10)")
    parser.add_argument("--bins", type=int, default=12,
                        help="headroom-histogram bins (default 12)")
    args = parser.parse_args(argv)
    try:
        store = ResultStore.open(args.store)
        document = render_store_report(store, top=args.top,
                                       histogram_bins=args.bins)
        n_compliant = int((store.live_mask()
                           & store.column("compliant")).sum())
    except (ResultStoreError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(document)
    return 0 if n_compliant else 1


def _run_compact(argv) -> int:
    """``python -m avipack compact`` — crash-safe space reclamation.

    Folds a journal's verified prefix into one checkpoint record
    and/or rewrites a result store's shards dropping superseded rows —
    both atomic, both ranking-preserving.  Exit codes: 0 — every
    requested compaction succeeded; 2 — usage error or a target that
    cannot be compacted (missing file, lock contention, no intact
    plan record).
    """
    from .errors import DurabilityError
    from .retention import compact_journal, compact_store

    parser = argparse.ArgumentParser(
        prog="python -m avipack compact",
        description="Compact a sweep journal (fold into a checkpoint "
                    "record) and/or a columnar result store (drop "
                    "superseded rows); resume "
                    "and rankings are byte-identical afterwards.")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="write-ahead journal to compact in place")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="result-store directory to compact")
    args = parser.parse_args(argv)
    if args.journal is None and args.store is None:
        parser.error("nothing to compact: give --journal and/or --store")
    try:
        if args.journal is not None:
            folded = compact_journal(args.journal)
            print(f"journal {args.journal}: folded {folded.n_folded} "
                  f"record(s) into one checkpoint "
                  f"({folded.bytes_before} -> {folded.bytes_after} "
                  f"bytes, {folded.bytes_reclaimed} reclaimed, "
                  f"{folded.n_quarantined} quarantined)")
        if args.store is not None:
            rewritten = compact_store(args.store)
            print(f"store {args.store}: rewrote "
                  f"{rewritten.shards_rewritten} shard(s) into "
                  f"{rewritten.shards_published}, dropped "
                  f"{rewritten.rows_dropped} superseded row(s) "
                  f"({rewritten.bytes_reclaimed} bytes reclaimed)")
    except DurabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_serve(argv) -> int:
    """``python -m avipack serve`` — the resilient sweep job server.

    Serves JSON-lines requests over a local Unix socket until drained
    (SIGTERM/SIGINT, or a client ``shutdown`` request); exits 0 after a
    graceful drain, 2 on a usage/startup error.  On startup every
    unfinished job found in ``--journal-dir`` is recovered and resumed.
    """
    import asyncio

    from .errors import ServiceError
    from .retention import RetentionPolicy
    from .service import AdmissionPolicy, ServiceConfig, SweepService

    parser = argparse.ArgumentParser(
        prog="python -m avipack serve",
        description="Serve sweep jobs over a local Unix socket "
                    "(JSON lines; see the avipack.service docs).")
    parser.add_argument("--socket", metavar="PATH", required=True,
                        help="Unix-domain socket path to listen on")
    parser.add_argument("--journal-dir", metavar="DIR", required=True,
                        help="directory for per-job journals and "
                             "manifests (created if missing; scanned "
                             "for unfinished jobs at startup)")
    parser.add_argument("--max-queued", type=int, default=16,
                        help="bounded-queue size (default 16)")
    parser.add_argument("--max-jobs-per-client", type=int, default=4,
                        help="active-job quota per client (default 4)")
    parser.add_argument("--max-candidates-per-job", type=int,
                        default=100_000,
                        help="per-submission size bound (default 100000)")
    parser.add_argument("--heartbeat-s", type=float, default=1.0,
                        metavar="S", help="heartbeat period (default 1)")
    parser.add_argument("--stall-timeout-s", type=float, default=300.0,
                        metavar="S",
                        help="cancel a running job making no candidate "
                             "progress for this long (default 300)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        metavar="S",
                        help="default per-job wall-clock deadline "
                             "(submissions may set their own)")
    parser.add_argument("--candidate-timeout-s", type=float,
                        default=None, metavar="S",
                        help="per-candidate watchdog handed to the "
                             "sweep runner (parallel mode)")
    parser.add_argument("--serial", action="store_true",
                        help="run sweeps on the serial path (no "
                             "process pool)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="sweep process-pool width")
    parser.add_argument("--throttle-s", type=float, default=0.0,
                        metavar="S",
                        help="artificial per-candidate delay (pacing "
                             "for demos and chaos drills; default 0)")
    parser.add_argument("--disk-high-watermark-bytes", type=int,
                        default=None, metavar="N",
                        help="journal-dir footprint that triggers "
                             "retention and degrades admission to "
                             "disk_low refusals (default: no governor)")
    parser.add_argument("--disk-low-watermark-bytes", type=int,
                        default=None, metavar="N",
                        help="footprint admission recovery requires "
                             "(default: half the high watermark)")
    parser.add_argument("--disk-poll-s", type=float, default=5.0,
                        metavar="S",
                        help="disk-usage poll period (default 5)")
    parser.add_argument("--keep-last-n", type=int, default=None,
                        metavar="N",
                        help="retention: keep at most N finished jobs")
    parser.add_argument("--max-age-s", type=float, default=None,
                        metavar="S",
                        help="retention: evict finished jobs older "
                             "than S seconds")
    parser.add_argument("--max-bytes", type=int, default=None,
                        metavar="N",
                        help="retention: evict oldest finished jobs "
                             "beyond N bytes of footprint")
    args = parser.parse_args(argv)

    config = ServiceConfig(
        socket_path=args.socket,
        journal_dir=args.journal_dir,
        admission=AdmissionPolicy(
            max_queued=args.max_queued,
            max_jobs_per_client=args.max_jobs_per_client,
            max_candidates_per_job=args.max_candidates_per_job),
        heartbeat_s=args.heartbeat_s,
        stall_timeout_s=args.stall_timeout_s,
        deadline_s=args.deadline_s,
        candidate_timeout_s=args.candidate_timeout_s,
        parallel=not args.serial,
        max_workers=args.max_workers,
        throttle_s=args.throttle_s,
        disk_high_watermark_bytes=args.disk_high_watermark_bytes,
        disk_low_watermark_bytes=args.disk_low_watermark_bytes,
        disk_poll_s=args.disk_poll_s,
        retention=RetentionPolicy(
            keep_last_n=args.keep_last_n,
            max_age_s=args.max_age_s,
            max_bytes=args.max_bytes))
    try:
        asyncio.run(SweepService(config).serve())
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


#: Zero-argument report commands (legacy dispatch).
_COMMANDS = {
    "fig10": _print_fig10,
    "claims": _print_claims,
    "nanopack": _print_nanopack,
    "qual": _print_qualification,
}

#: Commands that parse their own argument vector.
_ARG_COMMANDS = {
    "compact": _run_compact,
    "results": _run_results,
    "serve": _run_serve,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code.

    A reader that closes the pipe early (``python -m avipack results
    ... | head -1``) ends any command quietly with exit code 1 instead
    of a ``BrokenPipeError`` traceback.
    """
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull so the
        # flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _dispatch(argv) -> int:
    """Run the command named by ``argv[0]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        _print_fig10()
        print()
        _print_claims()
        return 0
    command = argv[0]
    if command in ("-h", "--help"):
        print(__doc__)
        return 0
    if command in _ARG_COMMANDS:
        return _ARG_COMMANDS[command](argv[1:])
    if command not in _COMMANDS:
        print(f"unknown command {command!r}; choose from "
              f"{', '.join(sorted(_COMMANDS) + sorted(_ARG_COMMANDS))}",
              file=sys.stderr)
        return 2
    _COMMANDS[command]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
