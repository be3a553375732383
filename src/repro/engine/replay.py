"""E18 — attacks re-run from recorded traces (the L0 replay source).

``trace_replay`` pushes each trace of the committed golden corpus (or
any trace files named via ``--set traces=...``) through the unchanged
observer + attack pipeline with a
:class:`~repro.trace.ReplayVictim` as the only "victim" — no cipher
in the loop — and checks the outcome against the metadata the
recording stamped: same recovered key, same encryption count, same
verification verdict.  This is the engine-facing face of the replay
channel: a regression harness proving that pipeline changes do not
silently alter what the attack extracts from a fixed observation
stream.

Each cell carries the trace file's SHA-256 alongside its path, so the
content-addressed result cache invalidates whenever a corpus file is
regenerated, not only when the code changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from ..channel.degradation import LossyChannel
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..core.outcome import run_attack
from ..core.results import AttackResult, FirstRoundResult
from ..staticcheck import declassify
from ..trace import ReplayVictim, TraceHeader, read_binary
from .artifact import outcome_tally
from .params import Param, spec
from .registry import CellPlan, Experiment, register

#: The committed golden corpus, relative to the repository root.
DEFAULT_TRACES = (
    "tests/corpus/gift64-seed0-first.grtr",
    "tests/corpus/gift64-seed0-full.grtr",
    "tests/corpus/gift64-seed0-miss20-full.grtr",
    "tests/corpus/present80-seed0-first.grtr",
    "tests/corpus/present80-seed0-full.grtr",
)

_REPLAY_SPEC = spec(
    Param("traces", "str", ",".join(DEFAULT_TRACES),
          "comma-separated trace files to replay (repo-relative)"),
)


def _repo_root() -> Path:
    # src/repro/engine/replay.py -> src/repro/engine -> src/repro
    # -> src -> repo root.
    return Path(__file__).resolve().parents[3]


def _resolve(path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_absolute():
        path = _repo_root() / path
    return path


def config_from_header(header: TraceHeader) -> AttackConfig:
    """The attack configuration a trace header describes.

    ``trace replay`` and this experiment both use this mapping, so a
    replayed attack re-derives the recorded crafting stream exactly —
    including the lossy-channel parameters a degraded recording stamps
    into the header meta, which select the same voting recovery (and
    the same derived degradation RNG streams) on replay.
    """
    return AttackConfig(
        geometry=header.geometry,
        probing_round=header.probing_round,
        use_flush=header.use_flush,
        probe_strategy=header.probe_strategy,
        seed=header.seed,
        loss=LossyChannel(
            miss_probability=float(header.meta.get("miss_probability",
                                                   0.0)),
            eviction_rate=float(header.meta.get("eviction_rate", 0.0)),
        ),
        max_total_encryptions=None,
    )


def replay_mismatches(meta: Mapping[str, Any],
                      result: Union[AttackResult, FirstRoundResult]
                      ) -> List[str]:
    """How a replayed outcome differs from the one the recording
    stamped into its header meta; empty when the replay matches.

    ``trace replay --check`` and this experiment share the rule.  A
    full-key replay must reproduce the key, the encryption count and
    the verification verdict (``verified == recovered``); a first-round
    replay the encryption count and the recovered bits.  A value the
    recording lacks is a mismatch: the replay cannot match it.
    """
    if isinstance(result, FirstRoundResult):
        checks = [
            ("effort drift", meta.get("total_encryptions"),
             result.encryptions),
            ("recovered-bits mismatch", meta.get("recovered_bits"),
             result.recovered_bits),
        ]
    else:
        recorded_key = meta.get("master_key")
        checks = [
            ("key mismatch", None if recorded_key is None
             else f"{int(recorded_key, 16):x}", f"{result.master_key:x}"),
            ("effort drift", meta.get("total_encryptions"),
             result.total_encryptions),
            ("verification mismatch", meta.get("recovered"),
             result.verified),
        ]
    return [
        f"{label}: recorded {'nothing' if recorded is None else recorded}"
        f", replayed {replayed}"
        for label, recorded, replayed in checks if recorded != replayed
    ]


def _replay_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    plans = []
    for path_text in str(params["traces"]).split(","):
        path_text = path_text.strip()
        if not path_text:
            continue
        path = _resolve(path_text)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        header = read_binary(path).header
        plans.append(CellPlan(
            cell={
                "trace": path_text,
                "sha256": digest,
                "target": header.target,
                "scope": header.meta.get("scope", "full-key"),
            },
            trials=1,
        ))
    if not plans:
        raise ValueError("traces must name at least one trace file")
    return plans


def _replay_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    trace = read_binary(_resolve(cell["trace"]))
    header = trace.header
    meta = header.meta
    victim = ReplayVictim(trace)
    attack = GrinchAttack(victim, config_from_header(header))
    full_key = cell["scope"] == "full-key"
    recorded_key = meta.get("master_key")
    # A full-key replay recovers when it reproduces the recorded key.
    ended = run_attack(
        attack, "full_key" if full_key else "first_round",
        None if recorded_key is None else int(recorded_key, 16),
    )
    result = ended.result
    return ended.trial(
        verified=result.verified if full_key and result else None,
        matches_recording=declassify(
            result is not None and not replay_mismatches(meta, result)
        ),
        windows_left=victim.remaining,
    )


def _replay_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    trial = trials[0]
    return {
        "cell": cell,
        "trials": trials,
        "summary": outcome_tally(trials)["summary"],
        **trial,
    }


def _replay_summarize(params: Mapping[str, Any],
                      cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "traces": len(cells),
        "all_recovered": all(c["recovered"] for c in cells),
        "all_match_recording": all(c["matches_recording"] for c in cells),
    }


def _replay_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for cell in record["cells"]:
        rows.append([
            Path(cell["cell"]["trace"]).name,
            cell["cell"]["scope"],
            str(cell["encryptions"]),
            "yes" if cell["recovered"] else "NO",
            "yes" if cell["matches_recording"] else "NO",
        ])
    return format_table(
        "E18 — Replayed attacks from the golden-trace corpus",
        ["Trace", "Scope", "Encryptions", "Recovered", "Matches"],
        rows,
    )


register(Experiment(
    name="trace_replay",
    experiment_id="E18",
    title="Golden-trace replay: the full attack re-run from recorded "
          "observations, no cipher in the loop",
    spec=_REPLAY_SPEC,
    plan=_replay_plan,
    trial=_replay_trial,
    finalize=_replay_finalize,
    summarize=_replay_summarize,
    render=_replay_render,
    aliases=("trace-replay", "replay", "e18"),
))
