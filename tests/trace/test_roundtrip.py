"""Property tests: serialization round-trips and corruption handling.

The binary codec must be lossless — any in-memory trace survives
``memory -> binary -> memory`` — and every malformed input must raise
a *typed* error, never silently yield a short stream.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.geometry import GEOMETRY_PRESETS, CacheGeometry
from repro.targets.layout import TableLayout
from repro.targets.trace import MemoryAccess
from repro.trace import (
    FORMAT_VERSION,
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    MAGIC,
    EncryptionRecord,
    TraceFile,
    TraceFormatError,
    TraceHeader,
    TraceVersionError,
    dumps,
    loads,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_TABLES = ("sbox", "perm", "other")


@st.composite
def headers(draw):
    width = draw(st.sampled_from((64, 128)))
    return TraceHeader(
        target=draw(st.sampled_from(("gift64", "gift128", "present80",
                                     "external"))),
        width=width,
        rounds=draw(st.integers(min_value=1, max_value=40)),
        seed=draw(st.one_of(st.none(),
                            st.integers(min_value=-2**31,
                                        max_value=2**31 - 1))),
        scope=draw(st.sampled_from(("runner", "external", "custom"))),
        probe_round_offset=draw(st.integers(min_value=0, max_value=2)),
        geometry=draw(st.sampled_from(
            tuple(GEOMETRY_PRESETS.values())
            + (CacheGeometry(total_lines=2048, ways=8),)
        )),
        layout=draw(st.sampled_from((
            TableLayout(),
            TableLayout(sbox_base=0x8000, sbox_entry_bytes=4,
                        perm_base=0x10000, perm_entry_bytes=16),
        ))),
        probing_round=draw(st.integers(min_value=1, max_value=4)),
        use_flush=draw(st.booleans()),
        probe_strategy=draw(st.sampled_from(
            ("flush_reload", "prime_probe", "flush_flush")
        )),
        meta=draw(st.dictionaries(
            st.sampled_from(("scope", "note", "total_encryptions")),
            st.one_of(st.integers(min_value=0, max_value=10**6),
                      st.text(max_size=12), st.booleans()),
            max_size=3,
        )),
    )


def _records(header: TraceHeader):
    width = header.width
    blocks = st.integers(min_value=0, max_value=2**width - 1)
    segments = header.segments
    rounds_visible = st.integers(min_value=1, max_value=4)

    pair = st.builds(
        lambda p, c: EncryptionRecord(kind=KIND_PAIR, plaintext=p,
                                      ciphertext=c),
        blocks, blocks,
    )

    access = st.builds(
        MemoryAccess,
        address=st.integers(min_value=0, max_value=2**48 - 1),
        round_index=st.integers(min_value=0, max_value=8),
        segment=st.integers(min_value=-1, max_value=segments - 1),
        table=st.sampled_from(_TABLES),
        index=st.integers(min_value=-1, max_value=255),
    )
    accesses = st.builds(
        lambda p, c, rv, acc: EncryptionRecord(
            kind=KIND_ACCESSES, plaintext=p, ciphertext=c,
            rounds_visible=rv, accesses=tuple(acc),
        ),
        st.one_of(st.none(), blocks), st.one_of(st.none(), blocks),
        rounds_visible, st.lists(access, max_size=24),
    )

    row = st.tuples(*([st.integers(min_value=0, max_value=15)]
                      * segments))
    indices = rounds_visible.flatmap(
        lambda rv: st.builds(
            lambda p, rows: EncryptionRecord(
                kind=KIND_INDICES, plaintext=p, rounds_visible=rv,
                indices=tuple(rows),
            ),
            st.one_of(st.none(), blocks),
            st.lists(row, min_size=rv, max_size=rv),
        )
    )
    return st.one_of(pair, accesses, indices)


@st.composite
def trace_files(draw):
    header = draw(headers())
    records = draw(st.lists(_records(header), max_size=6))
    return TraceFile(header=header, records=tuple(records))


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------

class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(trace_files())
    def test_binary_roundtrip(self, trace):
        assert loads(dumps(trace)) == trace

    @settings(max_examples=30, deadline=None)
    @given(trace_files())
    def test_binary_encoding_deterministic(self, trace):
        assert dumps(trace) == dumps(trace)


# ----------------------------------------------------------------------
# Corruption: typed errors, never short streams
# ----------------------------------------------------------------------

class TestBinaryCorruption:
    @settings(max_examples=30, deadline=None)
    @given(trace_files(), st.data())
    def test_truncation_never_yields_short_stream(self, trace, data):
        blob = dumps(trace)
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(blob) - 1))
        with pytest.raises(TraceFormatError):
            loads(blob[:cut])

    @settings(max_examples=30, deadline=None)
    @given(trace_files(), st.data())
    def test_bitflip_is_detected(self, trace, data):
        blob = bytearray(dumps(trace))
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(blob) - 1))
        blob[position] ^= data.draw(st.integers(min_value=1,
                                                max_value=255))
        with pytest.raises((TraceFormatError, TraceVersionError)):
            loads(bytes(blob))

    def test_bad_magic(self, small_trace):
        blob = b"XXXX" + dumps(small_trace)[4:]
        with pytest.raises(TraceFormatError):
            loads(blob)

    def test_version_skew_is_typed(self, small_trace):
        import struct
        import zlib

        blob = bytearray(dumps(small_trace))
        struct.pack_into("<H", blob, len(MAGIC), FORMAT_VERSION + 1)
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))
        with pytest.raises(TraceVersionError):
            loads(bytes(blob))

    def test_trailing_garbage_rejected(self, small_trace):
        with pytest.raises(TraceFormatError):
            loads(dumps(small_trace) + b"\x00")

    def test_empty_input(self):
        with pytest.raises(TraceFormatError):
            loads(b"")

