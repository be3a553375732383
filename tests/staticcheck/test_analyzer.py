"""Analyzer unit tests: one canonical fixture per sink kind, plus the
propagation and suppression paths."""

from repro.cache.geometry import CacheGeometry
from repro.staticcheck import SinkKind, analyze_module_source

from . import fixtures


def kinds(findings):
    return sorted(f.kind for f in findings)


class TestTableLookupSink:
    def test_secret_indexed_lookup_is_flagged(self):
        findings = analyze_module_source(fixtures.LEAKY_TABLE_LOOKUP)
        lookups = [f for f in findings if f.kind is SinkKind.TABLE_LOOKUP]
        assert len(lookups) == 1
        finding = lookups[0]
        assert finding.expression == "SBOX[index]"
        assert finding.table_bytes == 16
        assert finding.leak_bits == 4.0  # 16 lines of 1 byte
        assert finding.function == "sub_cells"

    def test_public_index_is_clean(self):
        assert analyze_module_source(fixtures.SAFE_PUBLIC_INDEX) == []

    def test_secret_value_public_index_is_clean(self):
        assert analyze_module_source(
            fixtures.SAFE_SECRET_VALUE_PUBLIC_INDEX) == []

    def test_loop_carried_taint_reaches_later_iterations(self):
        # Round 1 reads SBOX[plaintext] (public); the key only mixes in
        # afterwards.  The fixpoint must still flag the lookup, because
        # from round 2 on the same expression is secret-indexed.
        findings = analyze_module_source(fixtures.LEAKY_THROUGH_LOOP_CARRY)
        assert SinkKind.TABLE_LOOKUP in kinds(findings)

    def test_taint_through_annotated_helper(self):
        findings = analyze_module_source(fixtures.LEAKY_VIA_HELPER_ANNOTATION)
        lookups = [f for f in findings if f.kind is SinkKind.TABLE_LOOKUP]
        assert len(lookups) == 1
        assert lookups[0].function == "helper"

    def test_secret_indexed_map_getitem_is_flagged(self):
        # The table walk of TracedLutCipher.load_addresses_by_round.
        findings = analyze_module_source(fixtures.LEAKY_MAP_GETITEM)
        assert kinds(findings) == [SinkKind.TABLE_LOOKUP]
        assert findings[0].expression.startswith("map(getitem, (SBOX, SBOX)")
        assert findings[0].function == "sub_bytes"

    def test_map_getitem_at_public_indices_is_clean(self):
        assert analyze_module_source(
            fixtures.SAFE_MAP_GETITEM_PUBLIC_INDICES) == []

    def test_secret_attributes_class_decorator(self):
        findings = analyze_module_source(fixtures.SECRET_ATTRIBUTE_CLASS)
        lookups = [f for f in findings if f.kind is SinkKind.TABLE_LOOKUP]
        assert [f.function for f in lookups] == ["KeyState.leak"]


class TestBranchSink:
    def test_secret_branch_is_flagged(self):
        findings = analyze_module_source(fixtures.LEAKY_BRANCH)
        assert kinds(findings) == [SinkKind.BRANCH]
        assert findings[0].expression == "master_key & 1"

    def test_declassified_condition_is_clean(self):
        assert analyze_module_source(fixtures.SAFE_DECLASSIFIED) == []


class TestLoopBoundSink:
    def test_secret_while_condition_is_flagged(self):
        findings = analyze_module_source(fixtures.LEAKY_WHILE_LOOP)
        assert SinkKind.LOOP_BOUND in kinds(findings)

    def test_secret_range_bound_is_flagged(self):
        findings = analyze_module_source(fixtures.LEAKY_FOR_RANGE)
        assert SinkKind.LOOP_BOUND in kinds(findings)


class TestMemoryAccessSink:
    def test_secret_address_argument_is_flagged(self):
        findings = analyze_module_source(fixtures.LEAKY_MEMORY_ACCESS)
        assert SinkKind.MEMORY_ADDRESS in kinds(findings)
        address = [f for f in findings
                   if f.kind is SinkKind.MEMORY_ADDRESS][0]
        assert address.function == "load"


class TestSuppression:
    def test_inline_pragmas_silence_findings(self):
        assert analyze_module_source(fixtures.SUPPRESSED_INLINE) == []

    def test_pragma_kind_filter_only_silences_listed_kinds(self):
        source = fixtures.LEAKY_BRANCH.replace(
            "if master_key & 1:",
            "if master_key & 1:  # staticcheck: ignore[table-lookup]",
        )
        findings = analyze_module_source(source)
        assert kinds(findings) == [SinkKind.BRANCH]


class TestGeometryAwareSeverity:
    def test_packed_table_is_info_under_wide_lines(self):
        wide = CacheGeometry(line_words=8)
        findings = analyze_module_source(fixtures.RESHAPED_STYLE_TABLE,
                                         geometry=wide)
        lookups = [f for f in findings if f.kind is SinkKind.TABLE_LOOKUP]
        assert len(lookups) == 1
        assert lookups[0].leak_bits == 0.0
        assert lookups[0].severity.value == "info"

    def test_same_table_leaks_under_narrow_lines(self):
        findings = analyze_module_source(fixtures.RESHAPED_STYLE_TABLE)
        lookups = [f for f in findings if f.kind is SinkKind.TABLE_LOOKUP]
        assert lookups[0].leak_bits == 3.0  # 8 one-byte lines
        assert lookups[0].severity.value == "high"


class TestFingerprints:
    def test_fingerprint_is_line_independent(self):
        original = analyze_module_source(fixtures.LEAKY_BRANCH)
        shifted = analyze_module_source("# a new comment line\n"
                                        + fixtures.LEAKY_BRANCH)
        assert [f.fingerprint for f in original] == \
            [f.fingerprint for f in shifted]
        assert original[0].line != shifted[0].line
