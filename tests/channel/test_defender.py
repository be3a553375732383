"""L4 defender tests: counter attribution, per-primitive signatures,
detection policy, and — the load-bearing invariant — transparency:
watching an attack must not change what the attacker sees or spends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.multilevel import InclusionPolicy, TwoLevelHierarchy
from repro.channel import (
    CounterDelta,
    DefenderObserver,
    DetectionPolicy,
    ObservationChannel,
    ObservedTransport,
    SharedL2Transport,
    SingleLevelTransport,
    read_counters,
)
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.gift.lut import TracedGift64
from repro.seeding import derive_key


def _watched_channel(primitive, seed=9, defender=None, **overrides):
    victim = TracedGift64(derive_key(128, "defender-tests", seed))
    defender = defender if defender is not None else DefenderObserver()
    config = AttackConfig(probe_strategy=primitive, seed=seed, **overrides)
    return victim, defender, ObservationChannel(victim, config,
                                                defender=defender)


class TestCounterDelta:
    def test_arithmetic_is_fieldwise(self):
        a = CounterDelta(accesses=3, hits=2, misses=1, flushes=5)
        b = CounterDelta(accesses=1, hits=1, misses=0, flushes=2)
        assert (a + b).accesses == 4
        assert (a - b).flushes == 3

    def test_rates(self):
        delta = CounterDelta(accesses=4, hits=3, misses=1)
        assert delta.hit_rate == pytest.approx(0.75)
        assert delta.miss_rate == pytest.approx(0.25)
        assert CounterDelta().hit_rate == 0.0

    def test_pmc_visible_excludes_flushes(self):
        delta = CounterDelta(misses=2, evictions=3, back_invalidates=1,
                             flushes=100, flush_hits=100)
        assert delta.pmc_visible == 6


class TestReadCounters:
    def test_single_level_transport(self):
        transport = SingleLevelTransport(CacheGeometry())
        transport.access(0)
        transport.access(0)
        transport.flush_line(0)
        delta = read_counters(transport)
        assert delta.accesses == 2
        assert delta.hits == 1
        assert delta.misses == 1
        assert delta.flushes == 1
        assert delta.flush_hits == 1

    def test_hierarchy_transport_normalises_levels(self):
        hierarchy = TwoLevelHierarchy(inclusion=InclusionPolicy.INCLUSIVE)
        transport = SharedL2Transport(hierarchy)
        transport.victim_access(0)
        transport.access(0)
        delta = read_counters(transport)
        assert delta.accesses == 2
        assert delta.misses == 1  # one memory fetch
        assert delta.hits == 1    # the cross-core L2 hit

    def test_unwraps_observing_wrappers(self):
        transport = SingleLevelTransport(CacheGeometry())
        observed = DefenderObserver().watch(transport)
        observed.access(0)
        assert read_counters(observed) == read_counters(transport)

    def test_rejects_counterless_objects(self):
        with pytest.raises(TypeError):
            read_counters(object())


class TestAttributionAndWindows:
    def test_roles_split_attacker_from_victim(self):
        defender = DefenderObserver()
        transport = defender.watch(SingleLevelTransport(CacheGeometry()))
        defender.begin_window("unit")
        transport.victim_access(0)
        transport.access(64)
        transport.flush_line(64)
        window = defender.end_window()
        assert window.victim.accesses == 1
        assert window.attacker.accesses == 1
        assert window.attacker.flushes == 1
        assert window.total.accesses == 2

    def test_traffic_outside_windows_lands_in_ambient(self):
        defender = DefenderObserver()
        transport = defender.watch(SingleLevelTransport(CacheGeometry()))
        transport.victim_access(0)
        transport.access(64)
        assert defender.windows == []
        assert defender.ambient["victim"].accesses == 1
        assert defender.ambient["attacker"].accesses == 1

    def test_begin_window_closes_a_dangling_one(self):
        defender = DefenderObserver()
        defender.begin_window("first")
        defender.begin_window("second")
        defender.end_window()
        assert [w.primitive for w in defender.windows] == \
            ["first", "second"]

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            DefenderObserver().record("bystander", CounterDelta())

    def test_observed_transport_forces_full_path(self):
        transport = SingleLevelTransport(CacheGeometry())
        observed = DefenderObserver().watch(transport)
        assert transport.supports_fast_path
        assert not observed.supports_fast_path
        assert observed.line_bytes == transport.line_bytes

    def test_cold_keeps_the_same_defender(self):
        defender = DefenderObserver()
        observed = defender.watch(SingleLevelTransport(CacheGeometry()))
        chilled = observed.cold()
        assert isinstance(chilled, ObservedTransport)
        assert chilled.defender is defender
        assert chilled.inner.policy_name == observed.inner.policy_name


#: Small substrates, so short operation sequences evict and
#: back-invalidate: 8 sets of 2 ways (L1s of 4 lines under an
#: inclusive L2).
_SMALL = CacheGeometry(total_lines=16, ways=2)
_TRANSPORTS = {
    "single-lru": lambda: SingleLevelTransport(_SMALL),
    "single-random": lambda: SingleLevelTransport(_SMALL,
                                                  policy="random"),
    "shared-l2-inclusive": lambda: SharedL2Transport(TwoLevelHierarchy(
        l1_geometry=CacheGeometry(total_lines=4, ways=2),
        l2_geometry=_SMALL, inclusion=InclusionPolicy.INCLUSIVE,
    )),
}

_addresses = st.integers(0, 47)
_operations = st.lists(st.one_of(
    st.tuples(st.sampled_from(["access", "flush_line", "victim_access"]),
              _addresses),
    st.tuples(st.sampled_from(["victim_loads", "access_lines",
                               "flush_lines"]),
              st.lists(_addresses, max_size=8)),
    st.tuples(st.sampled_from(["begin", "end", "cold", "ambient"])),
), max_size=60)


class TestPhaseSnapshots:
    """The tap reads counters once per phase; each window's and the
    ambient bucket's per-role deltas must still equal the sum of
    per-operation counter differences."""

    @pytest.mark.parametrize("name", sorted(_TRANSPORTS))
    @settings(max_examples=60, deadline=None)
    @given(operations=_operations)
    def test_equals_per_operation_sums(self, name, operations):
        defender = DefenderObserver()
        tap = defender.watch(_TRANSPORTS[name]())
        ambient = {"attacker": CounterDelta(), "victim": CounterDelta()}
        windows = []
        current = None
        for operation in operations:
            kind = operation[0]
            if kind == "begin":
                if current is not None:
                    windows.append(current)
                current = {"attacker": CounterDelta(),
                           "victim": CounterDelta()}
                defender.begin_window()
            elif kind == "end":
                if current is not None:
                    windows.append(current)
                current = None
                defender.end_window()
            elif kind == "cold":
                tap = tap.cold()
            elif kind == "ambient":
                assert defender.ambient == ambient
            else:
                before = read_counters(tap.inner)
                getattr(tap, kind)(operation[1])
                delta = read_counters(tap.inner) - before
                role = "victim" if kind.startswith("victim") else "attacker"
                bucket = ambient if current is None else current
                bucket[role] = bucket[role] + delta
        if current is not None:
            windows.append(current)
            defender.end_window()
        assert [{"attacker": w.attacker, "victim": w.victim}
                for w in defender.windows] == windows
        assert defender.ambient == ambient


class TestDetectionPolicy:
    def test_flush_only_window_is_clean_by_default(self):
        window_flags = DetectionPolicy().flags(
            _window(attacker=CounterDelta(flushes=48, flush_hits=20,
                                          flush_misses=28))
        )
        assert window_flags == ()

    def test_miss_storm_flagged(self):
        flags = DetectionPolicy().flags(
            _window(attacker=CounterDelta(accesses=16, misses=12))
        )
        assert "attacker-miss-storm" in flags

    def test_eviction_storm_counts_back_invalidates(self):
        flags = DetectionPolicy().flags(
            _window(attacker=CounterDelta(evictions=5,
                                          back_invalidates=5))
        )
        assert "eviction-storm" in flags

    def test_victim_baseline_not_attributed_to_attacker(self):
        # The victim's own traffic may churn all it likes: attribution
        # keeps the detectors quiet.
        flags = DetectionPolicy().flags(
            _window(victim=CounterDelta(accesses=64, misses=64,
                                        evictions=64))
        )
        assert flags == ()

    def test_flush_detector_opt_in(self):
        window = _window(attacker=CounterDelta(flushes=48))
        assert DetectionPolicy().flags(window) == ()
        assert "flush-storm" in \
            DetectionPolicy(max_flushes=16).flags(window)


def _window(attacker=CounterDelta(), victim=CounterDelta()):
    from repro.channel.defender import WindowCounters
    return WindowCounters(index=0, primitive="unit",
                          attacker=attacker, victim=victim)


class TestPrimitiveSignatures:
    """The per-primitive counter fingerprints E20 rests on."""

    def _report(self, primitive, **overrides):
        victim, defender, channel = _watched_channel(primitive,
                                                     **overrides)
        plaintext = 0x0123456789ABCDEF
        for _ in range(32):
            channel.observe(plaintext, 1)
            plaintext = (plaintext * 0x9E3779B97F4A7C15 + 1) % (1 << 64)
        return defender.report()

    def test_flush_reload_is_a_miss_storm(self):
        report = self._report("flush_reload")
        assert report.windows == 32
        assert report.attacker_misses_per_window > 4
        # Flush phase + per-line reset: two clflush per monitored line.
        assert report.flushes_per_window == 32
        assert report.detectability > 0
        assert "attacker-miss-storm" in report.flag_reasons

    def test_flush_flush_is_invisible_to_the_pmu(self):
        report = self._report("flush_flush")
        assert report.windows == 32
        # Flush-only windows: no attacker loads at all.
        assert report.attacker_accesses_per_window == 0
        assert report.attacker_misses_per_window == 0
        assert report.detectability == 0.0
        assert report.detection_rate == 0.0
        # ... but the flush split still records the residency signal.
        # Flush phase plus the flush-probe itself: three clflush per
        # monitored line and window.
        assert report.flushes_per_window == 48
        assert report.flush_resident_per_window > 0

    def test_prime_probe_lights_up_the_eviction_counters(self):
        report = self._report("prime_probe")
        assert report.windows == 32
        assert report.evictions_per_window > 10
        assert report.flushes_per_window == 0  # no clflush at all
        assert report.detection_rate == 1.0
        assert "eviction-storm" in report.flag_reasons

    def test_stealth_ordering(self):
        flush_flush = self._report("flush_flush")
        flush_reload = self._report("flush_reload")
        prime_probe = self._report("prime_probe")
        assert flush_flush.detectability < flush_reload.detectability
        assert flush_reload.detectability < prime_probe.detectability

    def test_report_round_trips_to_json_dict(self):
        report = self._report("flush_reload")
        data = report.as_dict()
        assert data["windows"] == 32
        assert data["primitives"] == ["flush_reload"]
        assert isinstance(data["flag_reasons"], dict)


class TestTransparency:
    """Watching must not perturb the attack: same observations, same
    RNG draws, same effort."""

    def test_seed0_recovery_is_bit_identical_under_observation(self):
        key = derive_key(128, 0)
        victim = TracedGift64(key)

        unwatched = GrinchAttack(victim, AttackConfig(seed=0)) \
            .recover_master_key()

        defender = DefenderObserver()
        config = AttackConfig(seed=0)
        watched = GrinchAttack(
            victim, config,
            runner=ObservationChannel(victim, config, defender=defender),
        ).recover_master_key()

        assert watched.master_key == key
        # The documented seed-0 pin: exactly 464 encryptions, watched
        # or not.
        assert unwatched.total_encryptions == 464
        assert watched.total_encryptions == 464
        assert defender.report().windows == 464

    def test_observations_identical_with_and_without_defender(self):
        victim = TracedGift64(derive_key(128, "defender-tests", 2))
        plain = ObservationChannel(victim, AttackConfig(seed=3))
        watched = ObservationChannel(victim, AttackConfig(seed=3),
                                     defender=DefenderObserver())
        for plaintext in (0, 1, 0xFEDCBA9876543210):
            assert plain.observe(plaintext, 1) == \
                watched.observe(plaintext, 1)
