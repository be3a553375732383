"""Front-end for the L0 trace channel: ``python -m repro trace ...``.

.. code-block:: console

   $ python -m repro trace record --target gift64 --seed 0 \\
         --scope full-key --out tests/corpus/gift64-seed0-full.grtr
   $ python -m repro trace replay tests/corpus/gift64-seed0-full.grtr \\
         --check
   $ python -m repro trace info tests/corpus/gift64-seed0-full.grtr

``record`` runs the real attack against a registered target with a
:class:`~repro.trace.RecordingVictim` in front of the victim and
writes the captured trace; ``replay`` reruns the attack with a
:class:`~repro.trace.ReplayVictim` — same recovery, **no cipher in
the loop** — and ``--check`` pins the outcome against the metadata the
recording stored; ``info`` prints a file's header and record counts.

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
    RecordingVictim,
    ReplayVictim,
    TraceError,
    TraceFile,
    TraceHeader,
    TraceRecorder,
    read_binary,
    write_binary,
)

#: Recording scopes the CLI understands.
SCOPES = ("full-key", "first-round")


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
    out.parent.mkdir(parents=True, exist_ok=True)
    size = write_binary(trace, out)
    print(f"recorded {args.target} {args.scope} (seed {args.seed}): "
          f"{summary}")
    print(f"wrote {out} ({size} bytes, {trace.windows} windows, "
          f"{trace.pairs} pairs)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = read_binary(args.trace)
    header = trace.header
    meta = header.meta
    scope = args.scope or meta.get("scope") or "full-key"
    victim = ReplayVictim(trace)
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


def _cmd_info(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    trace = read_binary(path)
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="record, replay and inspect attack traces",
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
                        help=f"output path (binary, conventionally "
                             f"{BINARY_SUFFIX})")
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

    info = commands.add_parser(
        "info", help="print a trace file's header and record counts"
    )
    info.add_argument("trace")
    return parser


_HANDLERS = {
    "record": _cmd_record,
    "replay": _cmd_replay,
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
