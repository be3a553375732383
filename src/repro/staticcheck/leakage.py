"""Quantitative leakage analyzer: per-site bits-leaked bounds.

This is the quantitative layer on top of the taint pass: where
:mod:`repro.staticcheck.analyzer` *flags* a secret-dependent sink and
scores it with the coarse ``log2(lines_spanned)`` heuristic, this module
computes, per site, how many bits a line-granularity attacker actually
obtains — by enumerating the observation-equivalence classes of the
concrete secret-to-address map (:mod:`repro.staticcheck.equivalence`)
under a parameterized :class:`~repro.cache.geometry.CacheGeometry`.

Pipeline per site:

1. the taint pass reports a sink (table lookup / branch / address);
2. the concrete table is resolved through :mod:`repro.staticcheck.tables`
   plus any ``declare_table_layout`` annotation in the defining module
   (the GIFT/PRESENT/countermeasure layout metadata — e.g. the reshaped
   S-box's two-nibbles-per-byte packing, which the byte-footprint
   heuristic cannot see);
3. the secret domain is enumerated exhaustively (cipher tables have at
   most 256 entries) into equivalence classes, giving
   ``bits_exact`` (Shannon, uniform secret) and ``bits_bound``
   (``log2`` class count, the capacity bound) for one access, and an
   abstract channel-matrix bound across rounds
   (:func:`~repro.staticcheck.equivalence.composed_rounds_bound`);
4. branch/loop sinks carry their 1-bit-per-predicate bound; sites that
   resist quantification (unknown-size containers, raw address
   expressions) are *counted*, never silently zeroed.

The per-geometry results are committed as ``leakage-budget.json`` — the
repository's **leakage budget**.  CI recomputes the budget and fails
when any site's bound rises (a new or worsened leak) or when the file is
stale (an improvement that must be re-recorded), so a countermeasure PR
must demonstrably *move the computed bound*, not just edit the baseline.

``--validate`` cross-checks the static figures against *measured*
recovery effort from the experiment registry: the analytic
4-bits-per-segment bound, pushed through the coupon-collector effort
model with the enumerated class count, must predict the pinned
464-encryption seed-0 GIFT-64 full-key recovery within a pinned slack.

Run it as ``python -m repro staticcheck leakage [paths] [options]``.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache.geometry import (
    GEOMETRY_PRESETS,
    CacheGeometry,
    geometry_preset,
    preset_name_of,
)
from .equivalence import TableAccessLayout
from .findings import BRANCH_PREDICATE_BITS, Finding, SinkKind
from .project import (
    analyze_paths,
    build_table_index,
    iter_python_files,
    module_name_for,
    self_check_paths,
)
from .secrets import DEFAULT_SECRET_CONFIG, SecretConfig, declassify

#: Schema version of the leakage report / budget format.
LEAKAGE_VERSION = 1

#: Default committed budget location (repo root).
DEFAULT_BUDGET_NAME = "leakage-budget.json"

#: Presets the committed budget records.  ``paper`` is the attack
#: geometry (4-bit S-box leak), ``paper-8word`` the reshaped-S-box
#: countermeasure geometry (0-bit claim), and ``arm`` the mobile-SoC
#: scenario line size.
BUDGET_PRESETS: Tuple[str, ...] = ("paper", "paper-4word", "paper-8word",
                                   "arm")

#: How a site's figure was obtained.
METHOD_EQUIVALENCE = "equivalence-class"
METHOD_BRANCH = "branch-predicate"
METHOD_UNQUANTIFIED = "unquantified"


# ----------------------------------------------------------------------
# Static discovery of declare_table_layout annotations
# ----------------------------------------------------------------------

_DECLARE_NAME = "declare_table_layout"
_LAYOUT_INT_KEYS = ("domain", "entry_bytes", "values_per_entry",
                    "base_offset")


def _layout_from_call(node: ast.Call, module: str
                      ) -> Optional[Tuple[str, TableAccessLayout]]:
    """Decode one module-level ``declare_table_layout(...)`` call."""
    func = node.func
    callee = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if callee != _DECLARE_NAME:
        return None
    if not node.args or not isinstance(node.args[0], ast.Constant) \
            or not isinstance(node.args[0].value, str):
        return None
    name = node.args[0].value
    declared_module: Optional[str] = None
    values: Dict[str, int] = {}
    for keyword in node.keywords:
        if keyword.arg == "module":
            value = keyword.value
            if isinstance(value, ast.Name) and value.id == "__name__":
                declared_module = module
            elif isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                declared_module = value.value
        elif keyword.arg in _LAYOUT_INT_KEYS:
            value = keyword.value
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, int):
                values[keyword.arg] = value.value
    if declared_module is None or "domain" not in values:
        return None
    try:
        layout = TableAccessLayout(
            domain=values["domain"],
            entry_bytes=values.get("entry_bytes", 1),
            values_per_entry=values.get("values_per_entry", 1),
            base_offset=values.get("base_offset", 0),
        )
    except ValueError:
        return None
    qualified = f"{declared_module}.{name}" if declared_module else name
    return qualified, layout


def collect_layout_declarations(tree: ast.Module, module: str
                                ) -> Dict[str, TableAccessLayout]:
    """Layout annotations declared at module level, keyed by qualified
    table name."""
    layouts: Dict[str, TableAccessLayout] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Expr) \
                and isinstance(statement.value, ast.Call):
            decoded = _layout_from_call(statement.value, module)
            if decoded is not None:
                layouts[decoded[0]] = decoded[1]
    return layouts


def build_layout_index(files: Sequence[Path]
                       ) -> Dict[str, TableAccessLayout]:
    """Qualified-name -> layout map for the analysed file set.

    Explicit ``declare_table_layout`` annotations win; every other table
    recognised by :mod:`repro.staticcheck.tables` falls back to one
    secret value per entry at the inferred entry width.
    """
    index: Dict[str, TableAccessLayout] = {}
    for (_, _), info in build_table_index(files).items():
        index.setdefault(
            info.qualified_name,
            TableAccessLayout(domain=info.length,
                              entry_bytes=info.entry_bytes),
        )
    for path in files:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        index.update(collect_layout_declarations(tree,
                                                 module_name_for(path)))
    return index


# ----------------------------------------------------------------------
# Per-site quantification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SiteLeakage:
    """One sink with its quantified (or explicitly unquantified) figure."""

    finding: Finding
    method: str
    #: Expected bits per observation (Shannon, uniform secret); ``None``
    #: when the site resists exact enumeration.
    bits_exact: Optional[float]
    #: Per-observation capacity bound; ``None`` only for unquantified
    #: sites.
    bits_bound: Optional[float]
    #: Number of observation-equivalence classes (table sites only).
    class_count: Optional[int] = None
    #: Secret domain size (table sites only).
    domain: Optional[int] = None

    @property
    def quantified(self) -> bool:
        return self.bits_bound is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.finding.fingerprint,
            "path": self.finding.path,
            "line": self.finding.line,
            "function": self.finding.function,
            "kind": self.finding.kind.value,
            "table": self.finding.table,
            "method": self.method,
            "bits_exact": self.bits_exact,
            "bits_bound": self.bits_bound,
            "class_count": self.class_count,
            "domain": self.domain,
        }


def quantify_finding(finding: Finding, geometry: CacheGeometry,
                     layouts: Mapping[str, TableAccessLayout]
                     ) -> SiteLeakage:
    """Quantify one taint finding under ``geometry``."""
    if finding.kind is SinkKind.TABLE_LOOKUP and finding.table \
            and finding.table in layouts:
        partition = layouts[finding.table].partition(geometry)
        return SiteLeakage(
            finding=finding,
            method=METHOD_EQUIVALENCE,
            bits_exact=partition.shannon_bits,
            bits_bound=partition.min_entropy_bits,
            class_count=partition.class_count,
            domain=partition.domain,
        )
    if finding.kind in (SinkKind.BRANCH, SinkKind.LOOP_BOUND):
        return SiteLeakage(
            finding=finding,
            method=METHOD_BRANCH,
            bits_exact=None,
            bits_bound=BRANCH_PREDICATE_BITS,
        )
    return SiteLeakage(
        finding=finding,
        method=METHOD_UNQUANTIFIED,
        bits_exact=None,
        bits_bound=None,
    )


@dataclass
class LeakageReport:
    """All sites of one analysis run under one geometry."""

    geometry: CacheGeometry
    sites: List[SiteLeakage]
    stats: Dict[str, int] = field(default_factory=dict)
    preset: Optional[str] = None

    def __post_init__(self) -> None:
        if self.preset is None:
            self.preset = preset_name_of(self.geometry)

    @property
    def quantified_bound_bits(self) -> float:
        """Sum of per-observation capacity bounds over quantified sites."""
        return sum(s.bits_bound for s in self.sites if s.quantified)

    @property
    def table_bound_bits(self) -> float:
        return sum(s.bits_bound for s in self.sites
                   if s.method == METHOD_EQUIVALENCE)

    @property
    def branch_bound_bits(self) -> float:
        return sum(s.bits_bound for s in self.sites
                   if s.method == METHOD_BRANCH)

    @property
    def unquantified_sites(self) -> int:
        return sum(1 for s in self.sites if not s.quantified)

    def summary(self) -> Dict[str, Any]:
        return {
            "sites": len(self.sites),
            "quantified_bound_bits": self.quantified_bound_bits,
            "table_bound_bits": self.table_bound_bits,
            "branch_bound_bits": self.branch_bound_bits,
            "unquantified_sites": self.unquantified_sites,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": LEAKAGE_VERSION,
            "tool": "repro.staticcheck.leakage",
            "geometry": {
                "total_lines": self.geometry.total_lines,
                "ways": self.geometry.ways,
                "line_words": self.geometry.line_words,
                "word_bytes": self.geometry.word_bytes,
                "line_bytes": self.geometry.line_bytes,
                "preset": self.preset,
            },
            "sites": [s.to_dict() for s in self.sites],
            "summary": {**self.stats, **self.summary()},
        }

    def render_text(self) -> str:
        lines: List[str] = []
        geometry = self.geometry
        lines.append(
            f"leakage: cache geometry {geometry.line_bytes}-byte lines"
            + (f" (preset: {self.preset})" if self.preset else "")
        )
        by_path: Dict[str, List[SiteLeakage]] = {}
        for site in self.sites:
            by_path.setdefault(site.finding.path, []).append(site)
        for path in sorted(by_path):
            lines.append("")
            lines.append(f"{path}:")
            for site in sorted(by_path[path],
                               key=lambda s: (s.finding.line,
                                              s.finding.column)):
                finding = site.finding
                exact = ("-" if site.bits_exact is None
                         else f"{site.bits_exact:g}")
                bound = ("?" if site.bits_bound is None
                         else f"{site.bits_bound:g}")
                classes = ("" if site.class_count is None
                           else f" classes={site.class_count}/{site.domain}")
                lines.append(
                    f"  {finding.line:>4} {finding.kind.value:<14} "
                    f"exact={exact:<5} bound={bound:<5}"
                    f"{classes}  {finding.function}"
                )
        lines.append("")
        summary = self.summary()
        lines.append(
            f"{summary['sites']} site(s): "
            f"{summary['table_bound_bits']:g} table bits + "
            f"{summary['branch_bound_bits']:g} branch-predicate bits "
            f"bounded, {summary['unquantified_sites']} unquantified"
        )
        return "\n".join(lines)


def analyze_leakage(paths: Sequence[str],
                    geometry: CacheGeometry,
                    config: SecretConfig = DEFAULT_SECRET_CONFIG,
                    preset: Optional[str] = None) -> LeakageReport:
    """Run the taint pass and quantify every sink under ``geometry``."""
    findings, stats = analyze_paths(paths, config=config, geometry=geometry)
    layouts = build_layout_index(iter_python_files(paths))
    sites = [quantify_finding(f, geometry, layouts) for f in findings]
    return LeakageReport(geometry=geometry, sites=sites, stats=stats,
                         preset=preset)


# ----------------------------------------------------------------------
# The leakage budget
# ----------------------------------------------------------------------

def _site_records(report: LeakageReport) -> Dict[str, Dict[str, Any]]:
    """Budget entries keyed by fingerprint (duplicates aggregate to the
    worst bound and an occurrence count)."""
    records: Dict[str, Dict[str, Any]] = {}
    for site in report.sites:
        key = site.finding.fingerprint
        entry = {
            "path": site.finding.path,
            "function": site.finding.function,
            "kind": site.finding.kind.value,
            "table": site.finding.table,
            "method": site.method,
            "bits_exact": site.bits_exact,
            "bits_bound": site.bits_bound,
            "class_count": site.class_count,
            "occurrences": 1,
        }
        existing = records.get(key)
        if existing is None:
            records[key] = entry
        else:
            existing["occurrences"] += 1
            if (site.bits_bound or 0.0) > (existing["bits_bound"] or 0.0):
                existing.update({k: entry[k] for k in
                                 ("bits_exact", "bits_bound",
                                  "class_count", "method")})
    return records


def compute_budget(paths: Sequence[str],
                   presets: Sequence[str] = BUDGET_PRESETS,
                   config: SecretConfig = DEFAULT_SECRET_CONFIG
                   ) -> Dict[str, Any]:
    """The budget document: per-preset site bounds over ``paths``.

    Unlike the baseline file this includes *every* site — the
    known-intentional victim leaks are exactly what the budget exists to
    track; a countermeasure proves itself by lowering their computed
    bounds.
    """
    budget: Dict[str, Any] = {
        "version": LEAKAGE_VERSION,
        "tool": "repro.staticcheck.leakage",
        "presets": {},
    }
    for preset in presets:
        report = analyze_leakage(paths, geometry_preset(preset),
                                 config=config, preset=preset)
        budget["presets"][preset] = {
            "geometry": report.to_dict()["geometry"],
            "sites": _site_records(report),
            "summary": report.summary(),
            "targets": _target_records(geometry_preset(preset)),
        }
    return budget


def _target_records(geometry: CacheGeometry) -> Dict[str, Any]:
    """Joint per-round bounds for every registered cipher target.

    The per-site rows bound each load in isolation; the joint row
    applies the ``refine`` operator across all sites a segment drives
    within one round (S-box load x scatter load), answering how much
    the *combination* reveals.
    """
    from ..targets.registry import registered_targets

    records: Dict[str, Any] = {}
    for name, target in sorted(registered_targets().items()):
        joint = target.joint_bits_per_round(geometry)
        records[name] = {
            "segments": target.segments,
            "joint_bits_per_round": joint,
            "joint_bits_per_segment": joint / target.segments,
            "key_bits_per_round": target.bits_per_round,
        }
    return records


def write_budget(budget: Mapping[str, Any], path: Path) -> None:
    path.write_text(json.dumps(budget, indent=2, sort_keys=True) + "\n")


def load_budget(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_budget(current: Mapping[str, Any],
                 committed: Mapping[str, Any]) -> List[str]:
    """Diff a freshly computed budget against the committed one.

    Returns human-readable violations (empty = budgets agree).  Two
    failure classes:

    * ``REGRESSION`` — a site's bound rose, or a new quantified site
      appeared: the PR leaks more than the committed budget allows.
    * ``STALE`` — a bound fell or a site disappeared: an improvement
      that must be recorded by regenerating ``leakage-budget.json``
      (keeping the committed file the single source of truth, so a
      countermeasure cannot *claim* protection without the recomputed
      budget actually moving).
    """
    violations: List[str] = []
    current_presets = current.get("presets", {})
    committed_presets = committed.get("presets", {})
    for preset in sorted(set(current_presets) | set(committed_presets)):
        if preset not in committed_presets:
            violations.append(f"STALE: preset {preset!r} computed but not "
                              f"in the committed budget")
            continue
        if preset not in current_presets:
            violations.append(f"STALE: committed preset {preset!r} was not "
                              f"recomputed")
            continue
        new_sites = current_presets[preset]["sites"]
        old_sites = committed_presets[preset]["sites"]
        for fingerprint in sorted(set(new_sites) | set(old_sites)):
            new = new_sites.get(fingerprint)
            old = old_sites.get(fingerprint)
            if old is None:
                bound = new["bits_bound"]
                label = "?" if bound is None else f"{bound:g}"
                violations.append(
                    f"REGRESSION[{preset}]: new leakage site "
                    f"{fingerprint} (bound {label} bits)"
                )
                continue
            if new is None:
                violations.append(
                    f"STALE[{preset}]: site {fingerprint} no longer "
                    f"reported — regenerate {DEFAULT_BUDGET_NAME}"
                )
                continue
            new_bound, old_bound = new["bits_bound"], old["bits_bound"]
            if _close(new_bound, old_bound):
                continue
            if new_bound is None or (old_bound is not None
                                     and new_bound < old_bound):
                violations.append(
                    f"STALE[{preset}]: site {fingerprint} bound fell "
                    f"{old_bound!r} -> {new_bound!r} — regenerate "
                    f"{DEFAULT_BUDGET_NAME} to record the improvement"
                )
            else:
                violations.append(
                    f"REGRESSION[{preset}]: site {fingerprint} bound rose "
                    f"{old_bound!r} -> {new_bound!r}"
                )
        new_targets = current_presets[preset].get("targets", {})
        old_targets = committed_presets[preset].get("targets", {})
        for name in sorted(set(new_targets) | set(old_targets)):
            new = new_targets.get(name)
            old = old_targets.get(name)
            if old is None:
                violations.append(
                    f"REGRESSION[{preset}]: target {name!r} has no "
                    f"committed joint-leakage row — regenerate "
                    f"{DEFAULT_BUDGET_NAME}"
                )
                continue
            if new is None:
                violations.append(
                    f"STALE[{preset}]: committed target {name!r} is no "
                    f"longer registered — regenerate {DEFAULT_BUDGET_NAME}"
                )
                continue
            new_joint = new["joint_bits_per_round"]
            old_joint = old["joint_bits_per_round"]
            if _close(new_joint, old_joint):
                continue
            if new_joint < old_joint:
                violations.append(
                    f"STALE[{preset}]: target {name!r} joint bound fell "
                    f"{old_joint!r} -> {new_joint!r} — regenerate "
                    f"{DEFAULT_BUDGET_NAME} to record the improvement"
                )
            else:
                violations.append(
                    f"REGRESSION[{preset}]: target {name!r} joint bound "
                    f"rose {old_joint!r} -> {new_joint!r}"
                )
    return violations


# ----------------------------------------------------------------------
# Cross-validation against measured recovery effort
# ----------------------------------------------------------------------

#: The pinned seed-0 GIFT-64 Flush+Reload full-key effort (test-pinned
#: since PR 4; the RNG-compatibility contract of the whole repo).
PINNED_SEED0_ENCRYPTIONS = 464

#: Allowed multiplicative gap between the analytic effort prediction
#: (derived from the enumerated class count) and measured effort.  The
#: paper-geometry prediction is ~476.5 vs the pinned 464 (ratio 0.974);
#: 1.25 leaves room for key-to-key variance without letting a broken
#: channel model pass.
VALIDATION_SLACK = 1.25

#: Master-key bits of the GIFT-64 victim the registry experiment attacks.
_KEY_BITS = 128


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one analytic-vs-measured cross-validation."""

    preset: Optional[str]
    class_count: int
    bits_bound_per_observation: float
    predicted_encryptions: float
    measured_mean_encryptions: float
    measured_bits_per_encryption: float
    pinned_encryptions: Optional[int]
    runs: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render_text(self) -> str:
        lines = [
            f"leakage cross-validation "
            f"({self.preset or 'custom geometry'}, E4 x {self.runs} runs)",
            f"  equivalence classes per S-box access : "
            f"{self.class_count} -> bound "
            f"{self.bits_bound_per_observation:g} bits/observation",
            f"  analytic full-key effort             : "
            f"{self.predicted_encryptions:.1f} encryptions",
            f"  measured full-key effort (mean)      : "
            f"{self.measured_mean_encryptions:.1f} encryptions",
            f"  measured information rate            : "
            f"{self.measured_bits_per_encryption:.3f} bits/encryption",
        ]
        if self.pinned_encryptions is not None:
            lines.append(f"  pinned seed-0 recovery               : "
                         f"{self.pinned_encryptions} encryptions "
                         f"(expected {PINNED_SEED0_ENCRYPTIONS})")
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        if not self.failures:
            lines.append(f"  OK: measured rate <= analytic bound and "
                         f"effort within x{VALIDATION_SLACK:g} of the "
                         f"class-count prediction")
        return "\n".join(lines)


def predicted_full_key_encryptions(class_count: int) -> float:
    """Analytic full-key effort from the enumerated class count.

    This re-derives the coupon-collector effort model of
    :mod:`repro.analysis.theory` with the *computed* number of
    distinguishable observations (equivalence classes) in place of the
    byte-footprint heuristic: per segment, elimination ends when every
    non-target class has been absent from an observation window at least
    once.
    """
    from ..analysis.theory import (
        absence_probability,
        expected_max_geometric,
        visible_noise_accesses,
    )
    from ..targets.gift import gift64

    p_absent = absence_probability(
        class_count, visible_noise_accesses(probing_round=1, use_flush=True)
    )
    per_segment = expected_max_geometric(class_count - 1, p_absent)
    return gift64.full_key_rounds * gift64.segments * per_segment


def validate_against_measured(geometry: Optional[CacheGeometry] = None,
                              runs: int = 2,
                              use_cache: bool = True) -> ValidationResult:
    """Cross-validate the analytic bound against measured E4 effort.

    Runs the registered ``full_key`` experiment (E4) for GIFT-64 under
    ``geometry`` and checks three things:

    1. the pinned seed-0 recovery still costs exactly 464 encryptions
       (paper geometry only — the repo-wide RNG contract);
    2. the measured information rate (key bits / encryptions) does not
       exceed the analytic per-observation capacity bound — measurement
       can never beat the channel;
    3. measured effort agrees with the effort predicted from the
       enumerated class count within :data:`VALIDATION_SLACK` — the
       static model and the Monte-Carlo channel describe the same
       attack.
    """
    from ..engine import run_experiment

    if geometry is None:
        geometry = geometry_preset("paper")
    if geometry.word_bytes != 1 or geometry.line_words not in (1, 2, 4, 8):
        raise ValueError(
            "validation requires a paper-family geometry (1-byte words, "
            f"1/2/4/8-word lines); got {geometry}"
        )
    layout = _gift_sbox_layout()
    partition = layout.partition(geometry)
    bound = partition.min_entropy_bits
    predicted = predicted_full_key_encryptions(partition.class_count)

    record = run_experiment(
        "full_key",
        {"runs": runs, "seed": 0, "width": 64,
         "line_words": geometry.line_words},
        use_cache=use_cache,
    )
    measured = float(record["summary"]["mean_encryptions"])
    failures: List[str] = []
    if not record["summary"]["all_recovered"]:
        failures.append("E4 failed to recover every key")

    pinned: Optional[int] = None
    if geometry.line_words == 1:
        pinned = _pinned_seed0_encryptions()
        if pinned != PINNED_SEED0_ENCRYPTIONS:
            failures.append(
                f"pinned seed-0 recovery took {pinned} encryptions, "
                f"expected {PINNED_SEED0_ENCRYPTIONS}"
            )

    rate = _KEY_BITS / measured
    if rate > bound + 1e-9:
        failures.append(
            f"measured {rate:.3f} bits/encryption exceeds the analytic "
            f"{bound:g}-bit per-observation bound — the channel model is "
            f"inconsistent"
        )
    ratio = measured / predicted
    if not (1.0 / VALIDATION_SLACK <= ratio <= VALIDATION_SLACK):
        failures.append(
            f"measured effort {measured:.1f} is outside "
            f"x{VALIDATION_SLACK:g} of the analytic prediction "
            f"{predicted:.1f} (ratio {ratio:.3f})"
        )
    return ValidationResult(
        preset=preset_name_of(geometry),
        class_count=partition.class_count,
        bits_bound_per_observation=bound,
        predicted_encryptions=predicted,
        measured_mean_encryptions=measured,
        measured_bits_per_encryption=rate,
        pinned_encryptions=pinned,
        runs=runs,
        failures=tuple(failures),
    )


def target_table_layout(target_name: str) -> TableAccessLayout:
    """A registered target's S-box layout, via its runtime declaration.

    The target declares its tables by qualified name
    (:attr:`~repro.targets.CipherTarget.table_names`); importing the
    owning module registers the layout, which this resolves.
    """
    import importlib

    from ..targets.registry import get_target
    from .equivalence import declared_layout

    target = get_target(target_name)
    qualified = target.table_names[0]
    importlib.import_module(qualified.rsplit(".", 1)[0])
    layout = declared_layout(qualified)
    if layout is None:  # pragma: no cover - declaration removed
        layout = TableAccessLayout(domain=16, entry_bytes=1)
    return layout


def _gift_sbox_layout() -> TableAccessLayout:
    """The GIFT S-box layout (validation always runs against GIFT-64)."""
    return target_table_layout("gift64")


def _pinned_seed0_encryptions() -> int:
    """Re-run the pinned seed-0 GIFT-64 Flush+Reload recovery."""
    from ..core import AttackConfig, GrinchAttack
    from ..seeding import derive_key
    from ..targets.gift import TracedGift64

    victim = TracedGift64(derive_key(128, 0))
    result = GrinchAttack(victim, AttackConfig(seed=0)).recover_master_key()
    # Comparing the recovered key against the true one is the audit
    # itself, not a leak — declassified so the self-check stays clean.
    if declassify(result.master_key) != derive_key(128, 0):
        raise AssertionError("seed-0 recovery returned the wrong key")
    return result.total_encryptions


# ----------------------------------------------------------------------
# CLI: python -m repro staticcheck leakage
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck leakage",
        description="Quantitative leakage analyzer: per-site bits-leaked "
                    "bounds from observation-equivalence classes.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyse "
             "(default: the installed repro package)",
    )
    geometry = parser.add_mutually_exclusive_group()
    geometry.add_argument(
        "--geometry", choices=sorted(GEOMETRY_PRESETS), default=None,
        help="named cache-geometry preset (default: paper)",
    )
    geometry.add_argument(
        "--line-words", type=int, choices=(1, 2, 4, 8), default=None,
        help="raw line size in words (alternative to --geometry)",
    )
    parser.add_argument(
        "--word-bytes", type=int, default=1,
        help="bytes per word for --line-words (default: 1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the JSON report instead of text",
    )
    parser.add_argument(
        "--write-budget", nargs="?", const=DEFAULT_BUDGET_NAME,
        default=None, metavar="PATH",
        help="compute the per-preset budget and write it "
             f"(default path: {DEFAULT_BUDGET_NAME})",
    )
    parser.add_argument(
        "--check-budget", nargs="?", const=DEFAULT_BUDGET_NAME,
        default=None, metavar="PATH",
        help="recompute the budget and fail on any drift from the "
             "committed file (the CI gate)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="cross-validate the analytic bound against measured E4 "
             "recovery effort",
    )
    parser.add_argument(
        "--runs", type=int, default=2,
        help="E4 trials for --validate (default: 2)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the engine result cache during --validate",
    )
    return parser


def _resolve_geometry(args: argparse.Namespace
                      ) -> Tuple[CacheGeometry, Optional[str]]:
    if args.line_words is not None:
        return (CacheGeometry(line_words=args.line_words,
                              word_bytes=args.word_bytes), None)
    preset = args.geometry or "paper"
    return geometry_preset(preset), preset


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    paths = args.paths or self_check_paths()
    geometry, preset = _resolve_geometry(args)

    try:
        if args.write_budget is not None:
            budget = compute_budget(paths)
            target = Path(args.write_budget)
            write_budget(budget, target)
            total = sum(len(p["sites"])
                        for p in budget["presets"].values())
            print(f"wrote leakage budget for "
                  f"{len(budget['presets'])} geometry preset(s), "
                  f"{total} site entries, to {target}")
            return 0

        if args.check_budget is not None:
            committed_path = Path(args.check_budget)
            if not committed_path.exists():
                print(f"repro.staticcheck leakage: budget file not found: "
                      f"{committed_path} (run with --write-budget to "
                      f"create it)", file=sys.stderr)
                return 2
            current = compute_budget(paths)
            violations = check_budget(current, load_budget(committed_path))
            for violation in violations:
                print(violation, file=sys.stderr)
            if violations:
                print(f"{len(violations)} leakage-budget violation(s)",
                      file=sys.stderr)
                return 1
            presets = ", ".join(sorted(current["presets"]))
            print(f"leakage budget OK ({presets})")
            return 0

        if args.validate:
            result = validate_against_measured(
                geometry, runs=args.runs, use_cache=not args.no_cache
            )
            print(result.render_text())
            return 0 if result.ok else 1

        report = analyze_leakage(paths, geometry, preset=preset)
    except FileNotFoundError as error:
        print(f"repro.staticcheck leakage: {error}", file=sys.stderr)
        return 2

    print(json.dumps(report.to_dict(), indent=2) if args.json
          else report.render_text())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
