"""Leakage static analyzer for table-based cipher implementations.

GRINCH works because the table-based GIFT victim performs one
secret-indexed S-box load per segment per round — a *statically
detectable* code pattern.  This package finds such patterns without
running the code: an AST-based, intraprocedural taint analysis whose

* **sources** are declared secrets (master key and round-key material,
  seeded through :mod:`repro.staticcheck.secrets`),
* **propagation** follows assignments, arithmetic, and calls, and
* **sinks** are (a) secret-dependent subscripts into module-level
  lookup tables (the S-box/LUT channel GRINCH exploits), (b)
  secret-dependent branch and loop conditions (the timing channel), and
  (c) secret-dependent address expressions feeding
  :class:`repro.targets.trace.MemoryAccess`.

Severity is cache-geometry aware: a table lookup observable at line
granularity leaks ``log2(ceil(table_bytes / line_bytes))`` bits per
access, so the same finding that is *high* severity under the paper's
1-byte-line L1 becomes a harmless 0-bit *info* note for the reshaped
8-byte S-box under its recommended 8-byte line — the static mirror of
the paper's Section IV-C countermeasure claim.

The coarse ``log2`` figure is refined by the quantitative layer
(:mod:`repro.staticcheck.leakage`): concrete tables are resolved through
declared :class:`~repro.staticcheck.equivalence.TableAccessLayout`
metadata and the secret domain is enumerated into
observation-equivalence classes, giving exact per-site bits-leaked
figures and the committed per-geometry leakage budget CI gates on.

Run it as ``python -m repro.staticcheck [paths] [--json] [--baseline]``
or ``python -m repro.staticcheck leakage [--check-budget] [--validate]``.
"""

from .analyzer import analyze_module_source
from .equivalence import (
    ObservationPartition,
    TableAccessLayout,
    composed_rounds_bound,
    declare_table_layout,
    partition_by_observation,
    refine,
)
from .findings import Finding, Severity, SinkKind, leak_bits_for_table
from .project import analyze_paths
from .report import Report
from .secrets import (
    DEFAULT_SECRET_CONFIG,
    SecretConfig,
    declassify,
    secret_attributes,
    secret_params,
)

__all__ = [
    "DEFAULT_SECRET_CONFIG",
    "Finding",
    "ObservationPartition",
    "Report",
    "SecretConfig",
    "Severity",
    "SinkKind",
    "TableAccessLayout",
    "analyze_module_source",
    "analyze_paths",
    "composed_rounds_bound",
    "declare_table_layout",
    "declassify",
    "leak_bits_for_table",
    "partition_by_observation",
    "refine",
    "secret_params",
    "secret_attributes",
]
