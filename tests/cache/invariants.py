"""The inclusion invariant of a two-level hierarchy, for the tests."""

from repro.cache.multilevel import InclusionPolicy, TwoLevelHierarchy


def inclusion_holds(hierarchy: TwoLevelHierarchy) -> bool:
    """Inclusive: every L1-resident line is L2-resident.  Exclusive: no
    line is resident in both an L1 and the L2."""
    inclusive = hierarchy.inclusion is InclusionPolicy.INCLUSIVE
    return all(
        hierarchy.l2.is_resident(line * hierarchy.line_bytes) == inclusive
        for l1 in hierarchy.l1
        for line in l1.resident_lines()
    )
