"""E6/E7 — ablations registered in DESIGN.md.

* E6: probing-primitive choice (Flush+Reload vs. Prime+Probe) — the
  quantitative version of Section III-C's "Flush+Reload is the better
  choice".
* E7: analytic effort model vs. Monte-Carlo simulation — the validation
  that licenses using the model for the >1M drop-out cells.
* Extra: replacement-policy sensitivity (the S-box footprint is far
  below one way per set, so the policy should not matter) and
  micro-benchmarks of the substrate primitives.
"""

import random

import pytest

from repro.analysis import format_table
from repro.cache import CacheGeometry, SetAssociativeCache
from repro.channel import ObservationChannel, SingleLevelTransport
from repro.core import AttackConfig, GrinchAttack
from repro.engine import derive_key, render_record, run_experiment
from repro.gift import Gift64, TracedGift64


def test_probe_strategy_ablation(publish):
    """E6: Flush+Reload needs fewer encryptions than Prime+Probe."""
    record = run_experiment("probe_ablation", {"seed": 1, "runs": 2},
                            use_cache=False)
    publish("ablation_probe_strategy", render_record(record))

    by_name = {c["cell"]["strategy"]: c for c in record["cells"]}
    assert by_name["flush_reload"]["encryptions"] < \
        by_name["prime_probe"]["encryptions"]


def test_theory_validation(publish):
    """E7: the analytic model tracks simulation within tens of percent."""
    record = run_experiment(
        "theory_validation",
        {"cases": [[1, 1], [1, 2], [1, 3], [2, 1]], "runs": 4},
        use_cache=False,
    )
    publish("ablation_theory_vs_simulation", render_record(record))

    for cell in record["cells"]:
        assert cell["relative_error"] < 0.6


def test_replacement_policy_insensitivity(publish):
    """The attack's footprint never fills a 16-way set, so LRU vs. FIFO
    vs. random must not change the outcome."""
    key = derive_key(128, "bench-ablations", 4)
    rows = []
    for policy in ("lru", "fifo", "random"):
        # The policy only matters on the full-simulation path, and it
        # must be built into the transport: assigning a fresh cache to
        # `attack.runner.cache` (the pre-channel idiom this bench once
        # used) left the transport's LRU cache in the loop, so all
        # three rows were silently measuring LRU.
        victim = TracedGift64(key)
        config = AttackConfig(seed=6, use_fast_path=False,
                              max_total_encryptions=None)
        runner = ObservationChannel(
            victim, config,
            transport=SingleLevelTransport(config.geometry, policy=policy),
        )
        attack = GrinchAttack(victim, config, runner=runner)
        outcome = attack.attack_first_round()
        rows.append([policy, f"{outcome.encryptions:,}",
                     str(outcome.recovered_bits)])
    text = format_table(
        "Ablation — replacement policy sensitivity",
        ["Policy", "Encryptions", "Bits recovered"],
        rows,
    )
    publish("ablation_replacement_policy", text)

    assert {row[2] for row in rows} == {"32"}


def test_noise_sensitivity(publish):
    """Section IV-B1: attack efficiency vs. co-runner noise."""
    record = run_experiment("noise_sweep", {"runs": 2}, use_cache=False)
    cells = record["cells"]
    text = format_table(
        "Ablation — co-runner noise sensitivity (first-round attack)",
        ["P(noisy window)", "Touches/window", "Mean encryptions",
         "Recovered"],
        [[f"{c['cell']['touch_probability']:.1f}",
          str(c["cell"]["monitored_touches"]),
          f"{c['encryptions']:,.0f}", "yes" if c["recovered"] else "no"]
         for c in cells],
    )
    publish("ablation_noise", text)

    assert all(c["recovered"] for c in cells)
    assert cells[-1]["encryptions"] >= cells[0]["encryptions"]


def test_memory_hierarchy_ablation(publish):
    """Future work of the paper: attack effectiveness across a
    two-level hierarchy (cross-core via shared L2)."""
    from repro.cache.multilevel import InclusionPolicy
    from repro.core.crosscore import make_cross_core_runner
    from repro.core.errors import AttackError

    key = derive_key(128, "bench-ablations", 9)
    victim = TracedGift64(key)

    baseline = GrinchAttack(victim, AttackConfig(seed=41)) \
        .recover_master_key()
    config = AttackConfig(seed=41, max_total_encryptions=None)
    inclusive = GrinchAttack(
        victim, config,
        runner=make_cross_core_runner(victim, config,
                                      InclusionPolicy.INCLUSIVE),
    ).recover_master_key()
    blind_config = AttackConfig(seed=41, max_encryptions_per_segment=500,
                                max_total_encryptions=None)
    try:
        GrinchAttack(
            victim, blind_config,
            runner=make_cross_core_runner(victim, blind_config,
                                          InclusionPolicy.EXCLUSIVE),
        ).recover_master_key()
        exclusive_outcome = "KEY RECOVERED (unexpected)"
        exclusive_ok = False
    except AttackError as error:
        exclusive_outcome = f"attack fails ({type(error).__name__})"
        exclusive_ok = True

    text = format_table(
        "Ablation — memory hierarchy (paper future work)",
        ["Configuration", "Outcome"],
        [
            ["single shared L1 (paper setup)",
             f"key recovered, {baseline.total_encryptions} encryptions"],
            ["cross-core, inclusive shared L2",
             f"key recovered, {inclusive.total_encryptions} encryptions"],
            ["cross-core, exclusive shared L2", exclusive_outcome],
        ],
    )
    publish("ablation_memory_hierarchy", text)

    assert baseline.master_key == key
    assert inclusive.master_key == key
    assert exclusive_ok


def test_attack_taxonomy_ablation(publish):
    """Access vs. trace vs. time-driven cost for one segment's 2 bits
    (the paper's Section I taxonomy, made quantitative)."""
    from repro.gift import round_keys
    from repro.variants import TimeDrivenAttack, TraceDrivenAttack

    key = derive_key(128, "bench-ablations", 7)
    victim = TracedGift64(key)
    u1, v1 = round_keys(key, 1, width=64)[0]
    segment = 2
    truth = ((v1 >> segment) & 1, (u1 >> segment) & 1)

    grinch = GrinchAttack(victim, AttackConfig(seed=30))
    access_outcome = grinch.attack_first_round().outcome.segments[segment]
    trace_outcome = TraceDrivenAttack(victim, seed=31) \
        .recover_segment(segment)
    timing_outcome = TimeDrivenAttack(victim, seed=32) \
        .recover_segment(segment, samples=3_000)

    rows = [
        ["access-driven (GRINCH)", str(access_outcome.encryptions),
         "resident cache lines"],
        ["trace-driven", str(trace_outcome.encryptions),
         "victim hit/miss sequence"],
        ["time-driven", str(timing_outcome.encryptions),
         "window latency only"],
    ]
    text = format_table(
        "Ablation — observation-channel taxonomy (2 key bits, segment 2)",
        ["Channel", "Encryptions", "Observes"],
        rows,
    )
    publish("ablation_taxonomy", text)

    assert access_outcome.key_pairs[0] == truth
    assert trace_outcome.key_pairs == (truth,)
    assert timing_outcome.key_pairs == (truth,)


def test_noc_contention_ablation(publish):
    """E13: probe latency under victim NoC traffic (packet-level sim)."""
    from repro.soc import ClockDomain, measure_probe_contention

    clock = ClockDomain(50e6)
    rows = []
    for interval in (0, 200, 24, 8):
        report = measure_probe_contention(
            clock, traffic_interval_cycles=interval, probes=64
        )
        label = "idle" if interval == 0 else f"1 read / {interval} cycles"
        rows.append([
            label,
            f"{report.mean_round_trip_s * 1e9:.0f} ns",
            f"{report.worst_round_trip_s * 1e9:.0f} ns",
            f"x{report.slowdown:.2f}",
        ])
    text = format_table(
        "Ablation — NoC contention on attacker probes (50 MHz MPSoC)",
        ["Victim traffic", "Mean round trip", "Worst", "Slowdown"],
        rows,
    )
    publish("ablation_noc_contention", text)

    saturated = measure_probe_contention(
        clock, traffic_interval_cycles=8, probes=64
    )
    assert saturated.slowdown < 2.0  # Table II stays intact


# ----------------------------------------------------------------------
# Substrate micro-benchmarks
# ----------------------------------------------------------------------

def test_reference_gift64_encrypt_benchmark(benchmark):
    cipher = Gift64(0x0123456789ABCDEF0123456789ABCDEF)
    benchmark(lambda: cipher.encrypt(0xFEDCBA9876543210))


def test_traced_gift64_encrypt_benchmark(benchmark):
    victim = TracedGift64(0x0123456789ABCDEF0123456789ABCDEF)
    benchmark(lambda: victim.encrypt_traced(0xFEDCBA9876543210))


def test_untraced_gift64_encrypt_benchmark(benchmark):
    """The trace-free fast path every trace-discarding call site uses."""
    victim = TracedGift64(0x0123456789ABCDEF0123456789ABCDEF)
    benchmark(lambda: victim.encrypt(0xFEDCBA9876543210))


def test_fast_indices_benchmark(benchmark):
    """The attack's hot path: per-round S-box indices for 2 rounds."""
    victim = TracedGift64(0x0123456789ABCDEF0123456789ABCDEF)
    benchmark(lambda: victim.sbox_indices_by_round(0xFEDCBA9876543210, 2))


@pytest.mark.parametrize("line_words", [1, 8])
def test_cache_access_benchmark(benchmark, line_words):
    cache = SetAssociativeCache(CacheGeometry(line_words=line_words))
    addresses = [random.Random(0).randrange(1 << 16) for _ in range(256)]

    benchmark(lambda: cache.replay(addresses))
