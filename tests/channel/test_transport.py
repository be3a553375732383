"""L2 tests: the same-core and cross-core cache transports."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.multilevel import TwoLevelHierarchy
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
