"""The attack must work wherever the victim's tables live in memory."""

import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.channel import SboxMonitor
from repro.gift.lut import TableLayout, TracedGift64


class TestCustomLayouts:
    @pytest.mark.parametrize("sbox_base,perm_base", [
        (0x0, 0x4000),          # table at address zero
        (0x8000, 0x9000),       # high addresses
        (0x1003, 0x2000),       # UNALIGNED S-box base
    ])
    def test_full_recovery_with_relocated_tables(self, sbox_base,
                                                 perm_base):
        key = random.Random(sbox_base or 77).getrandbits(128)
        layout = TableLayout(sbox_base=sbox_base, perm_base=perm_base)
        victim = TracedGift64(key, layout=layout)
        config = AttackConfig(seed=13)
        result = GrinchAttack(victim, config).recover_master_key()
        assert result.master_key == key

    def test_unaligned_base_with_wide_lines_splits_lines_unevenly(self):
        """An S-box whose base is not line-aligned straddles one more
        cache line; the monitor must model that correctly."""
        layout = TableLayout(sbox_base=0x1002, perm_base=0x2000)
        geometry = CacheGeometry(line_words=4)
        monitor = SboxMonitor.build(layout, geometry)
        # 16 bytes starting 2 bytes into a 4-byte line: 5 lines.
        assert len(monitor.lines) == 5
        sizes = sorted(
            len(monitor.indices_for_line(line)) for line in monitor.lines
        )
        assert sizes == [2, 2, 4, 4, 4]

    def test_unaligned_recovery_with_wide_lines(self):
        """Misalignment changes which index bits leak, but the
        candidate-carrying machinery absorbs it."""
        key = random.Random(31337).getrandbits(128)
        layout = TableLayout(sbox_base=0x1002, perm_base=0x2000)
        victim = TracedGift64(key, layout=layout)
        config = AttackConfig(
            geometry=CacheGeometry(line_words=2),
            seed=17,
            max_total_encryptions=None,
        )
        result = GrinchAttack(victim, config).recover_master_key()
        assert result.master_key == key
