"""Tests for the memory-access trace records."""

import pytest

from repro.targets.trace import EncryptionTrace, MemoryAccess


def _access(round_index, segment=0, table="sbox", index=0, address=None):
    return MemoryAccess(
        address=address if address is not None else 0x1000 + index,
        round_index=round_index,
        segment=segment,
        table=table,
        index=index,
    )


class TestEncryptionTrace:
    def test_append_and_len(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        trace.accesses.append(_access(1))
        trace.accesses.append(_access(2))
        assert len(trace) == 2

    def test_iteration_preserves_order(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        accesses = [_access(1, segment=s) for s in range(5)]
        for access in accesses:
            trace.accesses.append(access)
        assert list(trace) == accesses

    def test_rounds_traced(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        assert trace.rounds_traced == 0
        trace.accesses.append(_access(3))
        trace.accesses.append(_access(1))
        assert trace.rounds_traced == 3

    def test_accesses_through_round(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        for r in (1, 2, 3, 4):
            trace.accesses.append(_access(r))
        assert len(trace.accesses_through_round(2)) == 2
        assert trace.accesses_through_round(0) == []

    def test_accesses_in_rounds_window(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        for r in (1, 2, 3, 4, 5):
            trace.accesses.append(_access(r))
        window = trace.accesses_in_rounds(2, 4)
        assert [a.round_index for a in window] == [2, 3, 4]

    def test_window_validation(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        with pytest.raises(ValueError):
            trace.accesses_in_rounds(3, 2)
        with pytest.raises(ValueError):
            trace.accesses_through_round(-1)

    def test_sbox_indices_filters_tables(self):
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        trace.accesses.append(_access(1, segment=0, table="sbox", index=5))
        trace.accesses.append(_access(1, segment=0, table="perm", index=9))
        trace.accesses.append(_access(1, segment=1, table="sbox", index=7))
        trace.accesses.append(_access(2, segment=0, table="sbox", index=1))
        assert trace.sbox_indices(1) == [(0, 5), (1, 7)]
        assert trace.sbox_indices(2) == [(0, 1)]

    def test_address_runs_split_at_first_load_of_each_round(self):
        """Run ``r`` starts at the first access of round ``r`` or later:
        untagged (round-0) loads stay in the run they follow, a skipped
        round leaves its run empty, and loads past the last run stay in
        it."""
        trace = EncryptionTrace(plaintext=0, ciphertext=0)
        for position, round_index in enumerate((0, 1, 0, 3, 2, 5)):
            trace.accesses.append(_access(round_index, address=position))
        assert trace.address_runs(1) == [[0, 1, 2, 3, 4, 5]]
        assert trace.address_runs(2) == [[0, 1, 2], [3, 4, 5]]
        assert trace.address_runs(4) == [[0, 1, 2], [], [3, 4], [5]]
        assert trace.address_runs(6) == [[0, 1, 2], [], [3, 4], [], [5], []]
        with pytest.raises(ValueError):
            trace.address_runs(0)

    def test_memory_access_is_immutable(self):
        access = _access(1)
        with pytest.raises(AttributeError):
            access.address = 42
