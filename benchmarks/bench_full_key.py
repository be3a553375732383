"""E4 — headline result: full 128-bit key recovery.

The paper: "the full key could be recovered with less than 400
encryptions".  Regenerates the measurement over several random keys and
benchmarks one complete recovery.
"""

from repro.analysis import render_series
from repro.core import AttackConfig, recover_full_key
from repro.engine import derive_key, run_experiment
from repro.gift import TracedGift64
from repro.perf import MIN_UNTRACED_OVER_TRACED, run_suite


def test_full_key_effort_regeneration(publish):
    # max_total_encryptions is the AttackConfig default whole-attack
    # budget; it is part of the params, so it fixes the trial seeds.
    record = run_experiment(
        "full_key",
        {"runs": 3, "seed": 2, "max_total_encryptions": 1_000_000},
        use_cache=False,
    )
    summary = record["cells"][0]["summary"]
    text = render_series(
        "E4 — Full 128-bit key recovery "
        f"(paper: < 400 encryptions; {record['params']['runs']} random keys)",
        ["mean encryptions", "min", "max"],
        [summary["mean"], summary["min"], summary["max"]],
    )
    publish("full_key_recovery", text)

    assert record["summary"]["all_recovered"]
    # Same few-hundred regime as the paper's headline number.
    assert summary["mean"] < 1_000


def test_full_key_recovery_benchmark(benchmark):
    key = derive_key(128, "bench-full-key", 8)
    victim = TracedGift64(key)

    result = benchmark(
        lambda: recover_full_key(victim, AttackConfig(seed=5))
    )
    assert result.master_key == key


def test_cipher_fast_path_ratio_regeneration(publish):
    """The recovery above leans on the trace-free ``encrypt()`` for
    every discarded trace; regenerate its speedup over the traced path
    and hold it to the perf suite's gate."""
    report = run_suite(quick=True, seed=3, min_seconds=0.05)
    ratio = report.ratios["gift64_untraced_over_traced"]
    text = render_series(
        "Cipher fast path — untraced vs. traced GIFT-64 encrypt",
        ["untraced enc/s", "traced enc/s", "speedup (x)"],
        [report.result("gift64_encrypt_untraced").ops_per_s,
         report.result("gift64_encrypt_traced").ops_per_s,
         ratio],
    )
    publish("cipher_fast_path", text)

    assert ratio >= MIN_UNTRACED_OVER_TRACED
