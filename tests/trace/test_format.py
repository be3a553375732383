"""The trace data model: headers, records, files."""

import dataclasses

import pytest

from repro.cache.geometry import GEOMETRY_PRESETS, CacheGeometry
from repro.targets.trace import MemoryAccess
from repro.trace import (
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceError,
    TraceFile,
    TraceHeader,
)


class TestTraceHeader:
    def test_defaults(self, header):
        assert header.segments == 16
        assert header.geometry_preset == "paper"
        assert header.tables == ("sbox", "perm", "other")

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceHeader(target="", width=64, rounds=28)
        with pytest.raises(ValueError):
            TraceHeader(target="x", width=63, rounds=28)
        with pytest.raises(ValueError):
            TraceHeader(target="x", width=64, rounds=0)
        with pytest.raises(ValueError):
            TraceHeader(target="x", width=64, rounds=28,
                        tables=("sbox", "sbox"))

    def test_table_index(self, header):
        assert header.table_index("sbox") == 0
        assert header.table_index("perm") == 1
        with pytest.raises(TraceError):
            header.table_index("nope")

    def test_with_meta_is_functional(self, header):
        stamped = header.with_meta(scope="full-key")
        assert stamped.meta == {"scope": "full-key"}
        assert header.meta == {}

    def test_non_preset_geometry(self):
        header = TraceHeader(target="x", width=64, rounds=28,
                             geometry=CacheGeometry(total_lines=2048))
        assert header.geometry_preset is None

    def test_for_victim_mirrors_config(self):
        from repro.core.config import AttackConfig
        from repro.targets.registry import get_target
        from repro.seeding import derive_key

        target = get_target("gift64")
        victim = target.make_victim(derive_key(target.key_bits, 0))
        config = AttackConfig(seed=7, probing_round=2, use_flush=False)
        header = TraceHeader.for_victim("gift64", victim, config,
                                        scope="full-key")
        assert header.target == "gift64"
        assert header.width == victim.width
        assert header.rounds == victim.rounds
        assert header.seed == 7
        assert header.probing_round == 2
        assert header.use_flush is False
        assert header.layout == victim.layout


class TestEncryptionRecord:
    def test_pair_needs_both_blocks(self):
        with pytest.raises(ValueError):
            EncryptionRecord(kind=KIND_PAIR, plaintext=1)
        with pytest.raises(ValueError):
            EncryptionRecord(kind=KIND_PAIR, ciphertext=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EncryptionRecord(kind="bogus")

    def test_indices_shape_checked(self):
        with pytest.raises(ValueError):
            EncryptionRecord(kind=KIND_INDICES, rounds_visible=2,
                             indices=(tuple(range(16)),))
        with pytest.raises(ValueError):
            EncryptionRecord(kind=KIND_INDICES, rounds_visible=1,
                             indices=((0,) * 15 + (16,),))

    def test_kind_stream_exclusivity(self):
        access = MemoryAccess(address=0x1000, round_index=1, segment=0,
                              table="sbox", index=0)
        with pytest.raises(ValueError):
            EncryptionRecord(kind=KIND_INDICES, rounds_visible=1,
                             indices=(tuple(range(16)),),
                             accesses=(access,))
        with pytest.raises(ValueError):
            EncryptionRecord(kind=KIND_ACCESSES, rounds_visible=1,
                             indices=(tuple(range(16)),))

    def test_is_window(self, small_trace):
        kinds = [r.is_window for r in small_trace.records]
        assert kinds == [True, True, False]

    def test_indices_record_to_trace(self, header, small_trace):
        record = small_trace.records[0]
        trace = record.to_trace(header)
        assert len(trace.accesses) == 2 * 16
        first = trace.accesses[0]
        assert first.table == "sbox"
        assert first.round_index == 1
        assert first.address == header.layout.sbox_address(first.index)

    def test_sbox_indices_by_round_from_accesses(self, header,
                                                 small_trace):
        record = small_trace.records[1]
        rows = record.sbox_indices_by_round(header.segments)
        assert rows == [[i for i in range(16)]]

    def test_sbox_rows_require_full_rounds(self, header):
        accesses = tuple(
            MemoryAccess(address=header.layout.sbox_address(i),
                         round_index=1, segment=i, table="sbox", index=i)
            for i in range(15)  # one short
        )
        record = EncryptionRecord(kind=KIND_ACCESSES, rounds_visible=1,
                                  accesses=accesses)
        with pytest.raises(TraceError):
            record.sbox_indices_by_round(header.segments)


class TestTraceFile:
    def test_counts(self, small_trace):
        assert small_trace.windows == 2
        assert small_trace.pairs == 1

    def test_segment_width_checked(self, header):
        bad = EncryptionRecord(kind=KIND_INDICES, rounds_visible=1,
                               indices=((0,) * 15,))
        with pytest.raises(ValueError):
            TraceFile(header=header, records=(bad,))


class TestHeaderEquality:
    def test_dataclass_roundtrip_fields(self, header):
        clone = dataclasses.replace(header)
        assert clone == header

    def test_presets_all_detectable(self):
        for name, geometry in GEOMETRY_PRESETS.items():
            assert TraceHeader(target="x", width=64, rounds=28,
                               geometry=geometry).geometry_preset == name
