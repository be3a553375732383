"""Front-end for the L0 trace channel: ``python -m repro trace ...``.

.. code-block:: console

   $ python -m repro trace record --target gift64 --seed 0 \\
         --scope full-key --out tests/corpus/gift64-seed0-full.grtr
   $ python -m repro trace replay tests/corpus/gift64-seed0-full.grtr \\
         --check
   $ python -m repro trace convert run.grtr run.jsonl
   $ python -m repro trace convert victim.log run.grtr --segments 16
   $ python -m repro trace info tests/corpus/gift64-seed0-full.grtr

``record`` runs the real attack against a registered target with a
:class:`~repro.trace.RecordingVictim` in front of the victim and
writes the captured trace; ``replay`` reruns the attack with a
:class:`~repro.trace.ReplayVictim` — same recovery, **no cipher in
the loop** — and ``--check`` pins the outcome against the metadata the
recording stored.  ``convert`` moves between the binary encoding, the
JSONL twin, and foreign malloc/free access logs.

This module lives *outside* the L0 package on purpose: it wires traces
into the attack core and so may import ``repro.core`` — which
``repro.trace`` itself must never do (enforced by the layering
checker).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .channel.degradation import LossyChannel
from .core.attack import GrinchAttack
from .core.config import AttackConfig
from .engine.replay import config_from_header, replay_mismatches
from .seeding import derive_key
from .targets.registry import get_target, target_names
from .trace import (
    BINARY_SUFFIX,
    MAGIC,
    ExternalTraceParser,
    RecordingVictim,
    ReplayVictim,
    TraceError,
    TraceFile,
    TraceHeader,
    TraceRecorder,
    dump_jsonl,
    dumps,
    load_jsonl,
    loads,
)

#: Recording scopes the CLI understands.
SCOPES = ("full-key", "first-round")


def _detect_format(data: bytes) -> str:
    """``"binary"``, ``"jsonl"`` or ``"external"`` from content."""
    if data[:len(MAGIC)] == MAGIC:
        return "binary"
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return "binary"  # not ours; let the binary reader complain
    for line in text.splitlines():
        if line.strip():
            return "jsonl" if line.lstrip().startswith("{") else "external"
    return "external"


def _read_trace(path: Path, args: argparse.Namespace) -> TraceFile:
    data = path.read_bytes()
    kind = getattr(args, "input_format", None) or _detect_format(data)
    if kind == "binary":
        return loads(data)
    if kind == "jsonl":
        return load_jsonl(data.decode("utf-8"))
    parser = ExternalTraceParser(
        segments=getattr(args, "segments", 16),
        target=getattr(args, "external_target", "external"),
        strict=not getattr(args, "lenient", False),
    )
    trace, stats = parser.parse(data.decode("utf-8").splitlines())
    if stats.skipped:
        print(f"external log: skipped {stats.skipped} lines "
              f"({stats.as_dict()})", file=sys.stderr)
    return trace


def _write_trace(trace: TraceFile, path: Path,
                 jsonl: Optional[bool] = None) -> int:
    as_jsonl = (path.suffix == ".jsonl" if jsonl is None else jsonl)
    if as_jsonl:
        data = dump_jsonl(trace).encode("utf-8")
    else:
        data = dumps(trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(data)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_record(args: argparse.Namespace) -> int:
    target = get_target(args.target)
    key = (args.key if args.key is not None
           else derive_key(target.key_bits, args.seed))
    victim = target.make_victim(key)
    config = AttackConfig(
        probing_round=args.probing_round,
        use_flush=not args.no_flush,
        probe_strategy=args.probe,
        seed=args.seed,
        loss=LossyChannel(miss_probability=args.miss,
                          eviction_rate=args.evict),
        use_fast_path=not args.no_fast_path,
        max_total_encryptions=None,
    )
    header = TraceHeader.for_victim(args.target, victim, config,
                                    scope=args.scope)
    recorder = TraceRecorder(header)
    attack = GrinchAttack(RecordingVictim(victim, recorder), config)
    if args.scope == "full-key":
        result = attack.recover_master_key()
        recovered = result.master_key == key and result.verified
        meta = {
            "scope": args.scope,
            "master_key": f"{result.master_key:x}",
            "total_encryptions": result.total_encryptions,
            "recovered": recovered,
        }
        summary = (f"{result.total_encryptions} encryptions, key "
                   f"{'recovered' if recovered else 'NOT recovered'}")
    else:
        result = attack.attack_first_round()
        meta = {
            "scope": args.scope,
            "total_encryptions": result.encryptions,
            "recovered_bits": result.recovered_bits,
        }
        summary = (f"{result.encryptions} encryptions, "
                   f"{result.recovered_bits} bits")
    if args.miss or args.evict:
        # Stamp the degradation so replay rebuilds the same channel
        # (and therefore the same voting recovery) from the header
        # alone; lossless recordings stay byte-identical to pre-loss
        # recordings.
        meta["miss_probability"] = args.miss
        meta["eviction_rate"] = args.evict
    captured = recorder.to_trace_file()
    trace = TraceFile(
        header=header.with_meta(windows=captured.windows, **meta),
        records=captured.records,
    )
    out = Path(args.out)
    size = _write_trace(trace, out, jsonl=args.jsonl or None)
    print(f"recorded {args.target} {args.scope} (seed {args.seed}): "
          f"{summary}")
    print(f"wrote {out} ({size} bytes, {trace.windows} windows, "
          f"{trace.pairs} pairs)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = _read_trace(Path(args.trace), args)
    header = trace.header
    meta = header.meta
    scope = args.scope or meta.get("scope") or "full-key"
    victim = ReplayVictim(trace, strict=not args.lenient)
    attack = GrinchAttack(victim, config_from_header(header))
    print(f"replaying {args.trace}: target {header.target}, "
          f"scope {scope}, seed {header.seed}, "
          f"{trace.windows} windows")
    if scope == "full-key":
        result = attack.recover_master_key()
        print(f"recovered key : {result.master_key:x}")
        print(f"encryptions   : {result.total_encryptions}")
        print(f"verified      : {result.verified}")
    else:
        result = attack.attack_first_round()
        print(f"encryptions   : {result.encryptions}")
        print(f"recovered bits: {result.recovered_bits}")
    failures = replay_mismatches(meta, result) if args.check else []
    if victim.remaining:
        print(f"note: {victim.remaining} records left unconsumed")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if args.check and not failures:
        print("check: replay matches the recording")
    return 1 if failures else 0


def _cmd_convert(args: argparse.Namespace) -> int:
    trace = _read_trace(Path(args.input), args)
    out = Path(args.output)
    size = _write_trace(trace, out, jsonl=args.jsonl or None)
    print(f"wrote {out} ({size} bytes, {len(trace.records)} records)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    trace = _read_trace(path, args)
    header = trace.header
    geometry = header.geometry
    print(f"{path} ({path.stat().st_size} bytes)")
    print(f"  target   : {header.target} (width {header.width}, "
          f"{header.rounds} rounds, {header.segments} segments)")
    print(f"  seed     : {header.seed} (scope {header.scope!r})")
    print(f"  geometry : {header.geometry_preset or 'custom'} "
          f"({geometry.total_lines} lines x {geometry.line_bytes} B)")
    print(f"  probing  : {header.probe_strategy}, round "
          f"{header.probing_round}, flush={header.use_flush}, "
          f"offset {header.probe_round_offset}")
    print(f"  records  : {len(trace.records)} "
          f"({trace.windows} windows, {trace.pairs} pairs)")
    kinds = {}
    for record in trace.records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    for kind in sorted(kinds):
        print(f"    {kind:<10}: {kinds[kind]}")
    for key in sorted(header.meta):
        print(f"  meta {key:<18}: {header.meta[key]}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input-format",
                     choices=("binary", "jsonl", "external"),
                     default=None,
                     help="input encoding (default: sniff the content)")
    sub.add_argument("--segments", type=int, default=16,
                     help="state segments for external logs "
                          "(default: 16)")
    sub.add_argument("--external-target", default="external",
                     help="target name stamped on parsed external logs")
    sub.add_argument("--lenient", action="store_true",
                     help="skip-and-count malformed external lines / "
                          "tolerate replay drift instead of failing")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="record, replay, convert and inspect attack traces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record", help="run a live attack and capture it as a trace"
    )
    record.add_argument("--target", default="gift64",
                        help=f"registered cipher target "
                             f"(one of: {', '.join(target_names())})")
    record.add_argument("--scope", choices=SCOPES, default="full-key",
                        help="how much of the attack to record")
    record.add_argument("--seed", type=int, default=0,
                        help="attacker RNG seed (also derives the "
                             "victim key unless --key is given)")
    record.add_argument("--key", type=lambda v: int(v, 16), default=None,
                        help="victim master key (hex)")
    record.add_argument("--out", required=True,
                        help=f"output path ({BINARY_SUFFIX} binary "
                             f"unless it ends in .jsonl)")
    record.add_argument("--jsonl", action="store_true",
                        help="force the JSONL encoding")
    record.add_argument("--probing-round", type=int, default=1)
    record.add_argument("--no-flush", action="store_true")
    record.add_argument("--probe",
                        choices=("flush_reload", "prime_probe",
                                 "flush_flush"),
                        default="flush_reload")
    record.add_argument("--no-fast-path", action="store_true",
                        help="record tagged address streams instead of "
                             "packed index rows (much larger files)")
    record.add_argument("--miss", type=float, default=0.0,
                        help="per-line probe miss probability — records "
                             "through a lossy channel and stamps it "
                             "into the header meta")
    record.add_argument("--evict", type=float, default=0.0,
                        help="per-window co-runner eviction rate "
                             "(stamped like --miss)")

    replay = commands.add_parser(
        "replay", help="rerun an attack from a trace (no cipher)"
    )
    replay.add_argument("trace", help="trace file to replay")
    replay.add_argument("--scope", choices=SCOPES, default=None,
                        help="override the recorded scope")
    replay.add_argument("--check", action="store_true",
                        help="verify the replay against the recording's "
                             "metadata (exit 1 on drift)")
    _add_input_options(replay)

    convert = commands.add_parser(
        "convert", help="convert between binary / JSONL / external logs"
    )
    convert.add_argument("input")
    convert.add_argument("output")
    convert.add_argument("--jsonl", action="store_true",
                         help="force JSONL output regardless of suffix")
    _add_input_options(convert)

    info = commands.add_parser(
        "info", help="print a trace file's header and record counts"
    )
    info.add_argument("trace")
    _add_input_options(info)
    return parser


_HANDLERS = {
    "record": _cmd_record,
    "replay": _cmd_replay,
    "convert": _cmd_convert,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro trace`` entry point; returns an exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except TraceError as error:
        print(f"trace error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"trace error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
