"""The external malloc/free + access-log parser, strict and lenient."""

import pytest

from repro.channel.transport import SingleLevelTransport
from repro.targets.layout import SBOX_ENTRIES, TableLayout
from repro.trace import (
    ExternalTraceError,
    ExternalTraceParser,
    ReplayVictim,
    TraceError,
    play,
)

#: A well-formed two-round log against the canonical default layout:
#: a 16-byte S-box allocation and a 16*16*8-byte perm allocation.
GOOD_LOG = "\n".join(
    ["# tooling header", "alloc 0x55a0 16", "alloc 0x7000 2048",
     "enc 0123456789abcdef fedcba9876543210"]
    + [f"read 0x55{0xA0 + (i % 16):x}" for i in range(32)]
    + ["read 0x7010", "end", "free 0x55a0", "free 0x7000"]
)


class TestHappyPath:
    def test_parses_rounds_and_tables(self):
        trace, stats = ExternalTraceParser().parse(GOOD_LOG)
        assert stats.skipped == 0
        assert stats.allocations == 2
        assert stats.frees == 2
        assert stats.encryptions == 1
        assert trace.header.target == "external"
        assert trace.header.scope == "external"
        record = trace.records[0]
        assert record.plaintext == 0x0123456789ABCDEF
        assert record.ciphertext == 0xFEDCBA9876543210
        assert record.rounds_visible == 2
        sbox = [a for a in record.accesses if a.table == "sbox"]
        perm = [a for a in record.accesses if a.table == "perm"]
        assert len(sbox) == 32 and len(perm) == 1
        assert {a.round_index for a in sbox} == {1, 2}
        # Segment positions count S-box loads within the round.
        assert [a.segment for a in sbox[:4]] == [0, 1, 2, 3]

    def test_addresses_rebased_to_canonical_layout(self):
        layout = TableLayout()
        trace, _ = ExternalTraceParser().parse(GOOD_LOG)
        record = trace.records[0]
        first = record.accesses[0]
        assert first.index == 0
        assert first.address == layout.sbox_address(0)

    def test_feeds_through_replay_transport(self):
        trace, _ = ExternalTraceParser().parse(GOOD_LOG)
        transport = SingleLevelTransport(trace.header.geometry)
        played = play(transport, trace.records[0])
        assert played == 33
        assert transport.cache.stats.accesses == 33

    def test_implicit_block_without_markers(self):
        log = "alloc 0x55a0 16\nread 0x55a1\nread 0x55a2\n"
        trace, stats = ExternalTraceParser().parse(log)
        assert stats.encryptions == 1
        assert trace.records[0].plaintext is None
        assert len(trace.records[0].accesses) == 2

    def test_enc_marker_autocloses_previous_block(self):
        log = ("alloc 0x55a0 16\nenc 01\nread 0x55a1\n"
               "enc 02\nread 0x55a2\n")
        trace, stats = ExternalTraceParser().parse(log)
        assert stats.encryptions == 2
        assert [r.plaintext for r in trace.records] == [1, 2]

    def test_free_unbinds_region(self):
        log = ("alloc 0x55a0 16\nfree 0x55a0\nalloc 0x9000 16\n"
               "read 0x9001\n")
        trace, stats = ExternalTraceParser().parse(log)
        assert stats.skipped == 0
        assert trace.records[0].accesses[0].index == 1

    def test_round_inference_uses_segments(self):
        parser = ExternalTraceParser(segments=4)
        sbox_size = SBOX_ENTRIES * TableLayout().sbox_entry_bytes
        log = "\n".join([f"alloc 0x55a0 {sbox_size}"]
                        + ["read 0x55a0"] * 9)
        trace, _ = parser.parse(log)
        assert trace.header.width == 16
        rounds = [a.round_index for a in trace.records[0].accesses]
        assert rounds == [1, 1, 1, 1, 2, 2, 2, 2, 3]


MALFORMED_CASES = [
    ("garbage line", "frobnicate 0x1 2", "skipped_malformed"),
    ("bad operand", "alloc 0xZZ 16", "skipped_malformed"),
    ("wrong arity", "alloc 0x55a0", "skipped_malformed"),
    ("negative size", "alloc 0x55a0 -4", "skipped_malformed"),
    ("unknown free", "free 0x9999", "skipped_unknown_free"),
    ("unmapped access", "read 0xdead0000", "skipped_unmapped"),
    ("stray end", "end", "skipped_stray"),
]


class TestStrictMode:
    @pytest.mark.parametrize("label,line,_", MALFORMED_CASES,
                             ids=[c[0] for c in MALFORMED_CASES])
    def test_raises_with_line_number(self, label, line, _):
        log = f"alloc 0x55a0 16\n{line}\n"
        with pytest.raises(ExternalTraceError) as excinfo:
            ExternalTraceParser(strict=True).parse(log)
        assert excinfo.value.lineno == 2
        assert "line 2" in str(excinfo.value)

    def test_access_outside_enc_block(self):
        log = "alloc 0x55a0 16\nenc 01\nend\nread 0x55a1\n"
        with pytest.raises(ExternalTraceError) as excinfo:
            ExternalTraceParser(strict=True).parse(log)
        assert excinfo.value.lineno == 4

    def test_overlapping_allocation(self):
        log = "alloc 0x55a0 16\nalloc 0x55a8 16\n"
        with pytest.raises(ExternalTraceError):
            ExternalTraceParser(strict=True).parse(log)


class TestLenientMode:
    @pytest.mark.parametrize("label,line,category", MALFORMED_CASES,
                             ids=[c[0] for c in MALFORMED_CASES])
    def test_skips_and_counts(self, label, line, category):
        log = f"alloc 0x55a0 16\n{line}\nread 0x55a1\n"
        trace, stats = ExternalTraceParser(strict=False).parse(log)
        assert getattr(stats, category) == 1
        assert stats.skipped == 1
        # The good access after the bad line still lands.
        assert len(trace.records[0].accesses) == 1

    def test_counts_survive_into_meta(self):
        log = "alloc 0x55a0 16\nbogus\nread 0x55a1\n"
        trace, stats = ExternalTraceParser(strict=False).parse(log)
        assert trace.header.meta["stats"] == stats.as_dict()
        assert trace.header.meta["stats"]["skipped_malformed"] == 1

    def test_never_silent(self):
        """Lenient mode must tally every single dropped line."""
        bad_lines = [case[1] for case in MALFORMED_CASES]
        log = "\n".join(["alloc 0x55a0 16"] + bad_lines)
        _, stats = ExternalTraceParser(strict=False).parse(log)
        assert stats.skipped == len(bad_lines)


class TestParserConfig:
    def test_custom_target_and_segments(self):
        parser = ExternalTraceParser(segments=32, target="mycipher")
        trace, _ = parser.parse("alloc 0x55a0 16\nread 0x55a0\n")
        assert trace.header.target == "mycipher"
        assert trace.header.width == 128

    def test_bad_segments(self):
        with pytest.raises(ValueError):
            ExternalTraceParser(segments=0)

    def test_custom_layout_binding(self):
        layout = TableLayout(sbox_entry_bytes=4)
        parser = ExternalTraceParser(layout=layout)
        trace, _ = parser.parse("alloc 0x55a0 64\nread 0x55a4\n")
        access = trace.records[0].accesses[0]
        assert access.table == "sbox"
        assert access.index == 1
        assert access.address == layout.sbox_address(1)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "victim.log"
        path.write_text(GOOD_LOG, encoding="utf-8")
        trace, stats = ExternalTraceParser().parse_file(path)
        assert stats.accesses == 33
        assert trace.windows == 1


class TestForeignReplay:
    """A parsed log replays only under a registered target name."""

    LOG = "alloc 0x55a0 16\nenc 01\nread 0x55a1\n"

    def test_unregistered_target_is_a_typed_refusal(self):
        trace, _ = ExternalTraceParser().parse(self.LOG)
        with pytest.raises(TraceError, match="'external'"):
            ReplayVictim(trace, strict=False)

    def test_registered_target_replays(self):
        trace, _ = ExternalTraceParser(target="gift64").parse(self.LOG)
        victim = ReplayVictim(trace, strict=False)
        assert victim.sbox_load_addresses == tuple(
            trace.header.layout.sbox_addresses())
