"""Command-line interface.

Subcommands:
    analyze  <paths...>           per-module symbol/import/PLT inventory
    check    --trace F -o R       replay a trace, write the report
    dair     --trace F -o R       replay and report the reduction metric
    fixture  --spec F -o DIR      build ELF images (+ sidecar) from JSON
    mutate   --trace F --class C  write an adversarially redirected trace

Exit codes: 0 clean, 1 policy violations found, 2 malformed input or
missing files.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

from .elf import FixtureSpec, build_fixture, load_sidecar, parse_module, sidecar_lines
from .errors import DynCfiError
from .trace import (
    MUTATION_CLASSES,
    MutationSpec,
    ReplayConfig,
    Replayer,
    events_to_jsonl,
    generate_adversarial_trace,
    parse_trace,
)

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncfi",
        description="Module-aware CFI policy checks over control-flow traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="inspect module files")
    p_analyze.add_argument("paths", nargs="+")

    def add_replay_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", required=True)
        p.add_argument("--sidecar", help="instruction boundary file")
        p.add_argument("--allowlist",
                       help="file of extra permitted '<module> <symbol>' pairs")
        p.add_argument("--universe", default="exec-bytes",
                       choices=["exec-bytes", "valid-instructions"])
        p.add_argument("--module-root",
                       help="directory for relative module paths "
                            "(default: the trace file's directory)")

    p_check = sub.add_parser("check", help="replay a trace and enforce rules")
    add_replay_args(p_check)
    p_check.add_argument("--abort", action="store_true",
                         help="stop at the first violation")
    p_check.add_argument("--dump-image",
                         help="also write the final process-image snapshot")
    p_check.add_argument("-o", "--output", required=True,
                         help="report file (JSON)")

    p_dair = sub.add_parser("dair", help="replay and compute target reduction")
    add_replay_args(p_dair)
    p_dair.add_argument("--csv", help="write the running series as CSV")
    p_dair.add_argument("--stripped-twin", action="store_true",
                        help="also replay against stripped module twins "
                             "and print the ordering")
    p_dair.add_argument("-o", "--output", required=True)

    p_fixture = sub.add_parser("fixture", help="build ELF fixtures from JSON")
    p_fixture.add_argument("--spec", required=True)
    p_fixture.add_argument("-o", "--output", required=True,
                           help="output directory")

    p_mutate = sub.add_parser("mutate", help="redirect one indirect transfer")
    p_mutate.add_argument("--trace", required=True)
    p_mutate.add_argument("--class", dest="mutation_class", required=True,
                          choices=list(MUTATION_CLASSES))
    p_mutate.add_argument("--seq", type=int,
                          help="seq of the event to mutate (default: first eligible)")
    p_mutate.add_argument("--sidecar")
    p_mutate.add_argument("--module-root")
    p_mutate.add_argument("-o", "--output", required=True)
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DynCfiError("malformed-input",
                          f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_allowlist(path: str) -> frozenset[tuple[str, str]]:
    pairs = set()
    # Only "\n" ends a line, and the symbol is the last field, so a module
    # path may hold U+2028 and friends (str.split breaks at those too).
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise DynCfiError("malformed-allowlist",
                              f"{path}:{lineno}: expected '<module> <symbol>'")
        pairs.add((parts[0], parts[1]))
    return frozenset(pairs)


def _config_from_args(args: argparse.Namespace) -> ReplayConfig:
    trace_path = Path(args.trace)
    if not trace_path.exists():
        raise DynCfiError("missing-file", f"trace file not found: {args.trace}")
    sidecar = None
    if getattr(args, "sidecar", None):
        if not Path(args.sidecar).exists():
            raise DynCfiError("missing-file",
                              f"sidecar file not found: {args.sidecar}")
        sidecar = load_sidecar(_read_text(args.sidecar))
    allowlist: frozenset[tuple[str, str]] = frozenset()
    if getattr(args, "allowlist", None):
        if not Path(args.allowlist).exists():
            raise DynCfiError("missing-file",
                              f"allowlist file not found: {args.allowlist}")
        allowlist = _load_allowlist(args.allowlist)
    module_root = Path(args.module_root) if getattr(args, "module_root", None) \
        else trace_path.parent
    return ReplayConfig(
        abort_on_violation=bool(getattr(args, "abort", False)),
        universe_mode=getattr(args, "universe", "exec-bytes"),
        allowlist=allowlist,
        sidecar=sidecar,
        module_root=module_root,
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    reports = []
    for path in args.paths:
        p = Path(path)
        if not p.exists():
            raise DynCfiError("missing-file", f"no such module file: {path}")
        image = parse_module(p.read_bytes(), path)
        reports.append(image.to_dict())
    print(json.dumps(reports if len(reports) > 1 else reports[0],
                     indent=2, sort_keys=True))
    return EXIT_CLEAN


def _cmd_check(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    events = parse_trace(_read_text(args.trace))
    replayer = Replayer(config)
    report = replayer.replay(events)
    Path(args.output).write_text(report.to_json() + "\n")
    if args.dump_image:
        Path(args.dump_image).write_text(
            json.dumps(replayer.process.snapshot_dict(), indent=2,
                       sort_keys=True) + "\n")
    if not report.clean:
        print(f"{len(report.violations)} violation(s); report: {args.output}",
              file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_CLEAN


def _cmd_dair(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    events = parse_trace(_read_text(args.trace))
    replayer = Replayer(config)
    report = replayer.replay(events)
    out: dict = {"dair": report.dair.to_report_dict()}
    if report.dair.n:
        summary = out["summary"] = report.dair.finalize()
        del summary["series"]
    else:
        print("no indirect transfers in trace (no DAIR to report)")

    if args.stripped_twin:
        stripped_modules = {path: img.stripped_twin()
                            for path, img in replayer.modules.items()}
        twin_report = Replayer(config, stripped_modules).replay(events)
        twin = out["stripped_twin"] = twin_report.dair.to_report_dict()
        if report.dair.n and twin_report.dair.n:
            full_v, twin_v = summary["total"], twin["total"]
            relation = ">=" if full_v >= twin_v else "<"
            print(f"DAIR full={full_v:.6f} stripped={twin_v:.6f} "
                  f"(full {relation} stripped)")

    Path(args.output).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    if args.csv:
        Path(args.csv).write_text(report.dair.csv_series())
    if report.dair.n:
        per_kind = ", ".join(f"{k}={v['pct']}" for k, v in summary["per_kind"].items())
        print(f"DAIR total {summary['total_pct']} over n={summary['n']} ({per_kind})")
    return EXIT_CLEAN


def _cmd_fixture(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise DynCfiError("missing-file", f"spec file not found: {args.spec}")
    try:
        raw = json.loads(_read_text(args.spec))
    except (ValueError, RecursionError) as exc:
        raise DynCfiError("malformed-spec",
                          f"{args.spec}: {getattr(exc, 'msg', exc)}") from None
    module_dicts = raw["modules"] if isinstance(raw, dict) and "modules" in raw \
        else [raw]
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    boundary_lines: list[str] = []
    try:
        for d in module_dicts:
            spec = FixtureSpec.from_dict(d)
            data = build_fixture(spec)
            target = out_dir / Path(spec.path).name
            target.write_bytes(data)
            boundary_lines.extend(sidecar_lines(spec))
            print(f"wrote {target} ({len(data)} bytes)")
    except (AttributeError, KeyError, TypeError, ValueError,
            struct.error) as exc:  # wrong shapes or types in the spec
        raise DynCfiError("malformed-spec",
                          f"{args.spec}: bad module entry: {exc}") from None
    sidecar_file = out_dir / "boundaries.sidecar"
    sidecar_file.write_text("\n".join(boundary_lines) + "\n")
    print(f"wrote {sidecar_file}")
    return EXIT_CLEAN


def _cmd_mutate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    events = parse_trace(_read_text(args.trace))
    mutated = generate_adversarial_trace(
        events, MutationSpec(kind=args.mutation_class, event_seq=args.seq),
        config=config)
    Path(args.output).write_text(events_to_jsonl(mutated))
    print(f"wrote {args.output} ({args.mutation_class} mutation)")
    return EXIT_CLEAN


_COMMANDS = {
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "dair": _cmd_dair,
    "fixture": _cmd_fixture,
    "mutate": _cmd_mutate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DynCfiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
