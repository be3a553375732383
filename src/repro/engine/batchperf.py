"""E19 — batch throughput: the bitsliced batch path vs the scalar loop.

``batch_throughput`` drives every registered cipher target through the
batch-first execution fabric: plaintext pools are encrypted once by the
scalar per-block victim and once through the victim's
:meth:`~repro.targets.protocol.CipherTarget.batch_view` (the bitsliced
numpy backend where one exists, the scalar loop otherwise), and the
trial body *asserts* bit-exact equivalence of the
ciphertexts and of the traced per-round S-box index streams before it
reports anything.  The deterministic fields (equivalence verdicts, a
ciphertext checksum, block counts) are identical at any worker count
and any ``batch_size``; wall-clock throughput numbers are opt-in via
``timed=true`` because they are machine-dependent and would poison the
content-addressed result cache's determinism guarantee.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Mapping

from ..seeding import derive_key, derive_rng
from ..staticcheck import declassify
from ..targets import get_target
from .artifact import trial_summary
from .params import Param, spec
from .registry import CellPlan, Experiment, register

#: Targets compared by default (giftcofb is reachable via
#: ``--set targets=giftcofb`` but stays out of the default plan: it has
#: no bitsliced backend, so its batch path is the scalar fallback).
DEFAULT_TARGETS = ("gift64", "gift128", "present80")

_BATCH_SPEC = spec(
    Param("targets", "str", ",".join(DEFAULT_TARGETS),
          "comma-separated cipher targets to compare"),
    Param("blocks", "int", 1024, "plaintext blocks per trial"),
    Param("batch_size", "int", 256,
          "blocks handed to encrypt_batch per call"),
    Param("traced_blocks", "int", 64,
          "blocks cross-checked for traced-index equality"),
    Param("seed", "int", 0, "base seed of the plaintext pools"),
    Param("timed", "bool", False,
          "also record machine-dependent blocks/s fields"),
)


def _plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["blocks"] < 1:
        raise ValueError(f"blocks must be positive, got {params['blocks']}")
    if params["batch_size"] < 1:
        raise ValueError(
            f"batch_size must be positive, got {params['batch_size']}"
        )
    names = [name.strip() for name in str(params["targets"]).split(",")
             if name.strip()]
    if not names:
        raise ValueError("targets must name at least one cipher target")
    return [CellPlan(cell={"target": name}, trials=1) for name in names]


def _scalar_indices(victim: Any, plaintexts: List[int],
                    limit: int) -> List[List[List[int]]]:
    """The scalar reference stream in batch order
    (``[round - 1][segment][block]``)."""
    per_block = [victim.sbox_indices_by_round(plaintext, limit)
                 for plaintext in plaintexts]
    segments = len(per_block[0][0])
    return [
        [
            [indices[round_index][segment] for indices in per_block]
            for segment in range(segments)
        ]
        for round_index in range(limit)
    ]


def _checksum(ciphertexts: List[int], width: int) -> str:
    digest = hashlib.sha256()
    for ciphertext in ciphertexts:
        digest.update(int(ciphertext).to_bytes(width // 8, "little"))
    return digest.hexdigest()[:16]


def _trial(params: Mapping[str, Any], cell: Dict[str, Any],
           trial_index: int, seed: int) -> Dict[str, Any]:
    target = get_target(cell["target"])
    key = derive_key(target.key_bits, "e19-key", seed, cell["target"])
    victim = target.make_victim(key)
    backend = target.batch_view(victim)
    rng = derive_rng("e19-plaintexts", seed, cell["target"])
    plaintexts = [rng.getrandbits(target.width)
                  for _ in range(params["blocks"])]
    batch_size = params["batch_size"]

    def encrypt_batch(chunk: List[int]) -> List[int]:
        if backend is None:
            return [victim.encrypt(plaintext) for plaintext in chunk]
        return backend.encrypt_batch(chunk)

    scalar_cts = [victim.encrypt(plaintext) for plaintext in plaintexts]
    batch_cts: List[int] = []
    for start in range(0, len(plaintexts), batch_size):
        batch_cts.extend(
            encrypt_batch(plaintexts[start:start + batch_size])
        )
    equivalent = batch_cts == scalar_cts
    # The equivalence assertion is part of the trial body on purpose:
    # a diverging bitsliced backend must fail the experiment, not just
    # flip a summary flag downstream.
    assert equivalent, (
        f"{cell['target']}: batch ciphertexts diverge from the scalar path"
    )

    traced_pool = plaintexts[:min(params["traced_blocks"],
                                  len(plaintexts))]
    limit = min(3, victim.rounds)
    traced_equivalent = backend is None or (
        backend.sbox_indices_batch(traced_pool, max_rounds=limit).tolist()
        == _scalar_indices(victim, traced_pool, limit)
    )
    assert traced_equivalent, (
        f"{cell['target']}: batch traced indices diverge from the "
        f"scalar path"
    )

    record: Dict[str, Any] = {
        "vectorized": backend is not None,
        "equivalent": declassify(equivalent),
        "traced_equivalent": declassify(traced_equivalent),
        "blocks": len(plaintexts),
        "checksum": declassify(_checksum(batch_cts, target.width)),
    }
    if params["timed"]:
        start = time.perf_counter()
        for offset in range(0, len(plaintexts), batch_size):
            encrypt_batch(plaintexts[offset:offset + batch_size])
        batch_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for plaintext in plaintexts:
            victim.encrypt(plaintext)
        scalar_seconds = time.perf_counter() - start
        record["batch_blocks_per_s"] = (
            len(plaintexts) / batch_seconds if batch_seconds > 0 else 0.0
        )
        record["scalar_blocks_per_s"] = (
            len(plaintexts) / scalar_seconds if scalar_seconds > 0 else 0.0
        )
        record["speedup"] = (
            record["batch_blocks_per_s"] / record["scalar_blocks_per_s"]
            if record["scalar_blocks_per_s"] > 0 else 0.0
        )
    return record


def _finalize(params: Mapping[str, Any], cell: Dict[str, Any],
              trials: List[Any]) -> Dict[str, Any]:
    trial = trials[0]
    return {
        "cell": cell,
        "trials": trials,
        "summary": trial_summary([float(t["blocks"]) for t in trials]),
        **trial,
    }


def _summarize(params: Mapping[str, Any],
               cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "targets": len(cells),
        "all_equivalent": all(
            c["equivalent"] and c["traced_equivalent"] for c in cells
        ),
        "vectorized_targets": sum(1 for c in cells if c["vectorized"]),
    }


def _render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    timed = bool(record["params"].get("timed"))
    headers = ["Target", "Blocks", "Vectorized", "Equivalent", "Checksum"]
    if timed:
        headers += ["Batch blk/s", "Scalar blk/s", "Speedup"]
    rows = []
    for cell in record["cells"]:
        row = [
            cell["cell"]["target"],
            str(cell["blocks"]),
            "yes" if cell["vectorized"] else "no",
            ("yes" if cell["equivalent"] and cell["traced_equivalent"]
             else "NO"),
            cell["checksum"],
        ]
        if timed:
            row += [
                f"{cell['batch_blocks_per_s']:,.0f}",
                f"{cell['scalar_blocks_per_s']:,.0f}",
                f"{cell['speedup']:.1f}x",
            ]
        rows.append(row)
    return format_table(
        "E19 — Batch execution fabric: bitsliced batch path vs the "
        "scalar loop",
        headers,
        rows,
    )


register(Experiment(
    name="batch_throughput",
    experiment_id="E19",
    title="Batch throughput: bitsliced encrypt_batch equivalence and "
          "speedup over the scalar per-block loop",
    spec=_BATCH_SPEC,
    plan=_plan,
    trial=_trial,
    finalize=_finalize,
    summarize=_summarize,
    render=_render,
    aliases=("batch-throughput", "batchperf", "e19"),
))
