"""L2 tests: the same-core and cross-core cache transports."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.multilevel import (
    InclusionPolicy,
    MemoryLevel,
    TwoLevelHierarchy,
)
from repro.channel import SharedL2Transport, SingleLevelTransport


class TestSingleLevel:
    def test_attacker_and_victim_share_state(self):
        transport = SingleLevelTransport(CacheGeometry())
        assert not transport.access(0)        # cold miss fills the line
        assert transport.victim_access(0)     # victim sees the fill
        assert transport.flush_line(0)        # flush reports presence
        assert not transport.victim_access(0)  # and actually removed it

    def test_cold_starts_empty(self):
        transport = SingleLevelTransport(CacheGeometry())
        transport.access(0)
        fresh = transport.cold()
        assert not fresh.access(0)
        assert transport.geometry is fresh.geometry

    def test_capabilities(self):
        transport = SingleLevelTransport(CacheGeometry())
        assert transport.supports_prime_probe
        assert transport.supports_fast_path
        assert not transport.noise_via_victim
        assert not transport.probe_on_empty_window

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_fast_path_needs_lru(self, policy):
        transport = SingleLevelTransport(CacheGeometry(), policy=policy)
        assert not transport.supports_fast_path
        assert not transport.cold().supports_fast_path

    def test_geometry_check(self):
        transport = SingleLevelTransport(CacheGeometry(line_words=1))
        transport.check_geometry(CacheGeometry(line_words=1))
        with pytest.raises(ValueError, match="line size"):
            transport.check_geometry(CacheGeometry(line_words=8))


class TestSharedL2:
    def test_victim_l1_residency_is_invisible(self):
        transport = SharedL2Transport()
        transport.victim_access(0)
        # The line is in the victim's L1 *and* the inclusive L2, so the
        # shared level does expose it...
        assert transport.access(0)
        # ...but flushing purges every level for both parties.
        transport.flush_line(0)
        assert not transport.access(0)

    def test_flush_reports_shared_presence(self):
        transport = SharedL2Transport()
        transport.victim_access(0)
        assert transport.flush_line(0)
        assert not transport.flush_line(0)

    def test_capabilities_forbid_prime_probe(self):
        transport = SharedL2Transport()
        assert not transport.supports_prime_probe
        assert not transport.supports_fast_path
        assert transport.noise_via_victim
        assert transport.probe_on_empty_window

    def test_needs_two_cores(self):
        with pytest.raises(ValueError, match="two cores"):
            SharedL2Transport(TwoLevelHierarchy(cores=1))

    def test_needs_distinct_cores(self):
        with pytest.raises(ValueError, match="distinct cores"):
            SharedL2Transport(victim_core=1, attacker_core=1)

    def test_cold_preserves_shape(self):
        transport = SharedL2Transport()
        transport.victim_access(0)
        fresh = transport.cold()
        assert not fresh.access(0)
        assert fresh.hierarchy.cores == transport.hierarchy.cores
        assert fresh.line_bytes == transport.line_bytes


def _small_hierarchy(inclusion):
    return TwoLevelHierarchy(
        l1_geometry=CacheGeometry(total_lines=4, ways=2),
        l2_geometry=CacheGeometry(total_lines=16, ways=2),
        inclusion=inclusion,
    )


_TWINS = {
    "single": lambda: SingleLevelTransport(
        CacheGeometry(total_lines=16, ways=2)),
    "shared-l2-inclusive": lambda: SharedL2Transport(
        _small_hierarchy(InclusionPolicy.INCLUSIVE)),
    "shared-l2-exclusive": lambda: SharedL2Transport(
        _small_hierarchy(InclusionPolicy.EXCLUSIVE)),
}


def _substrate_state(transport):
    if isinstance(transport, SingleLevelTransport):
        cache = transport.cache
        return (dataclasses.astuple(cache.stats), cache.resident_lines())
    hierarchy = transport.hierarchy
    return (dataclasses.astuple(hierarchy.stats),
            [l1.resident_lines() for l1 in hierarchy.l1],
            hierarchy.l2.resident_lines())


def _substrate_load(transport, address):
    """One victim load straight on the substrate: did it hit anywhere?"""
    if isinstance(transport, SingleLevelTransport):
        return transport.cache.access(address)
    level = transport.hierarchy.access(transport.victim_core, address)
    return level is not MemoryLevel.MEMORY


class TestVictimLoads:
    """One ``victim_loads`` call is the per-address ``victim_access``
    loop, and both are the substrate's own per-load answers, however
    the stream is cut into calls, with or without the per-load hits."""

    @pytest.mark.parametrize("name", sorted(_TWINS))
    @settings(max_examples=60, deadline=None)
    @given(addresses=st.lists(st.integers(0, 63), max_size=80),
           cut=st.integers(0, 80))
    def test_matches_per_address_loop(self, name, addresses, cut):
        batched, listed, looped, reference = (_TWINS[name]()
                                              for _ in range(4))
        hits = (batched.victim_loads(addresses[:cut])
                + batched.victim_loads(iter(addresses[cut:])))
        per_load = []
        listed_hits = (listed.victim_loads(addresses[:cut], per_load)
                       + listed.victim_loads(iter(addresses[cut:]),
                                             per_load))
        expected = [_substrate_load(reference, address)
                    for address in addresses]
        assert [looped.victim_access(address)
                for address in addresses] == expected
        assert per_load == expected
        assert hits == listed_hits == sum(expected)
        assert (_substrate_state(batched) == _substrate_state(listed)
                == _substrate_state(looped)
                == _substrate_state(reference))


def _substrate_probe(transport, kind, address):
    """One attacker operation straight on the substrate, answered as
    the attacker senses it."""
    if isinstance(transport, SingleLevelTransport):
        operation = (transport.cache.access if kind == "access"
                     else transport.cache.flush_line)
        return operation(address)
    hierarchy = transport.hierarchy
    resident = hierarchy.l2.is_resident(address)
    if kind == "access":
        hierarchy.access(transport.attacker_core, address)
    else:
        hierarchy.flush_line(address)
    return resident


class TestAttackerRuns:
    """``access_lines``/``flush_lines`` give the substrate's own
    per-line answers, one per address in order, and leave the same
    state, between victim runs that refill the lines."""

    @pytest.mark.parametrize("name", sorted(_TWINS))
    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(
        st.tuples(st.sampled_from(["access", "flush", "victim"]),
                  st.lists(st.integers(0, 63), max_size=24)),
        max_size=10))
    def test_matches_substrate_per_line(self, name, runs):
        batched, reference = _TWINS[name](), _TWINS[name]()
        for kind, addresses in runs:
            if kind == "victim":
                batched.victim_loads(addresses)
                for address in addresses:
                    _substrate_load(reference, address)
                continue
            run = (batched.access_lines if kind == "access"
                   else batched.flush_lines)
            assert run(iter(addresses)) == [
                _substrate_probe(reference, kind, address)
                for address in addresses]
            assert _substrate_state(batched) == _substrate_state(reference)
