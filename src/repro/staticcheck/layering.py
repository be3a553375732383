"""Import-layering checks for the attack stack.

**Channel stack.**  The :mod:`repro.channel` package is a strict
four-layer architecture (see ``docs/architecture.md``):

====  ======================  =================================
L0    ``repro.trace``         trace record/replay substrate
L1    ``channel.primitive``   how residency is read
L2    ``channel.transport``   which substrate probe & victim share
L3    ``channel.degradation`` loss/jitter decorators
L4    ``channel.defender``    counter-tap + detection (consumer #2)
L4    ``channel.observer``    the one public observation API
====  ======================  =================================

(L0 is its own package, not a channel module: the trace formats and
record/replay objects sit *below* the whole stack and are checked by
rule 6 below.)

with ``channel.monitor`` below L1 (pure address bookkeeping) and the
package ``__init__`` above L4 (re-exports only).  Two rules keep the
stack acyclic and the layers substitutable:

1. **Intra-package**: a channel module may import only *strictly
   lower* layers — ``primitive`` must not know about ``transport``
   (it sees substrates through the ``ProbeSurface`` protocol),
   ``transport`` must not know about degradations, and nothing but
   the observer composes the stack.
2. **Inter-package**: :mod:`repro.channel` must not import
   :mod:`repro.core` or :mod:`repro.engine` (both *consume* the
   channel; an upward import would recreate the circular
   runner/attack coupling the refactor removed).

**Package layering.**  Since the :class:`~repro.targets.CipherTarget`
refactor the repo-wide rules are checked too:

3. **Cipher encapsulation**: only ``repro.gift`` itself and the
   ``repro.targets`` adapter layer may import ``repro.gift``;
   likewise for ``repro.present``.  Everything else reaches ciphers
   through the target protocol (or the re-exports in
   ``repro.targets``), so adding a cipher never ripples through the
   pipeline.
4. **Targets layer**: ``repro.targets`` sits below the pipeline — it
   must not import ``repro.core``, ``repro.channel`` or
   ``repro.engine`` (they consume targets, not the reverse).
5. **Deleted-module ban**: the removed pre-channel deprecation shims
   (``repro.core.runner`` et al.) and the deleted wrapper/re-export
   modules (``repro.analysis.experiments``, ``repro.core.profile``,
   ``repro.cache.hierarchy``, ``repro.targets.batch``,
   ``repro.gift.trace``) must not be
   imported; this replaces the retired ``deprecation-shims`` CI job.
6. **Trace layer (L0)**: ``repro.trace`` sits below everything —
   it may import only the victim-facing data model
   (``repro.targets``), geometry (``repro.cache``), seeding, and the
   staticcheck annotations.  Importing ``repro.channel``,
   ``repro.core``, ``repro.engine`` or any other pipeline package
   from L0 is an upward import (replay must work with no cipher and
   no channel in the loop; the CLI glue lives in ``repro.tracecli``
   *outside* the package for exactly this reason).

The check is a small AST walk (the repo deliberately has no
import-linter dependency) and runs in CI and the test suite:

    python -m repro.staticcheck.layering
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

#: Layer index of every module inside ``repro.channel``.  A module may
#: import only modules with a strictly smaller index.
CHANNEL_LAYERS = {
    "monitor": 0,
    "primitive": 1,
    "transport": 2,
    "degradation": 3,
    # The defender is the stack's second L4 consumer; it sits one
    # position below the observer in the import order because the
    # observer composes the defender's tap in (never the reverse).
    "defender": 4,
    "observer": 5,
    "__init__": 6,
}

#: Packages the channel may never import (they consume the channel).
FORBIDDEN_PREFIXES = ("repro.core", "repro.engine")

#: Cipher packages and the packages allowed to import them.  Everything
#: else must go through :mod:`repro.targets`.
CIPHER_PACKAGES = {
    "repro.gift": ("repro.gift", "repro.targets"),
    "repro.present": ("repro.present", "repro.targets"),
}

#: The targets layer sits below the attack pipeline.
TARGETS_FORBIDDEN = ("repro.core", "repro.channel", "repro.engine")

#: L0: packages ``repro.trace`` may never import.  The allow-list view:
#: targets (data model), cache (geometry), seeding, staticcheck
#: (annotations) and the stdlib are fine; everything that *consumes*
#: traces is not.
TRACE_FORBIDDEN = (
    "repro.channel",
    "repro.core",
    "repro.engine",
    "repro.variants",
    "repro.analysis",
    "repro.countermeasures",
    "repro.cli",
    "repro.tracecli",
    "repro.perf",
    "repro.soc",
)

#: Deleted modules — importing them anywhere is an error.
#: (This rule replaces the retired ``deprecation-shims`` CI job.)
BANNED_MODULES = (
    "repro.core.runner",
    "repro.core.probe",
    "repro.core.monitor",
    "repro.core.noise",
    "repro.variants.observations",
    "repro.engine.seeding",
    "repro.analysis.experiments",
    "repro.core.profile",
    "repro.cache.hierarchy",
    "repro.targets.batch",
    "repro.gift.trace",
)


def _channel_module(node: ast.AST, importer: str,
                    package_depth: int) -> Iterable[Tuple[str, int]]:
    """Yield ``(module_name, lineno)`` of imports resolved to
    ``repro.channel`` submodules or to forbidden packages."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, node.lineno
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            module = node.module or ""
        else:
            # Resolve the relative import against repro.channel.<mod>:
            # level 1 is the channel package itself, level 2 is repro.
            parts = ["repro", "channel"][: package_depth + 1 - node.level]
            if node.module:
                parts.append(node.module)
            module = ".".join(parts)
        yield module, node.lineno
        # ``from repro.channel import observer``-style imports name the
        # submodule in the alias list, not the module path.
        if module == "repro.channel":
            for alias in node.names:
                if alias.name in CHANNEL_LAYERS:
                    yield f"repro.channel.{alias.name}", node.lineno


def check_channel_layering(channel_dir: Optional[Path] = None) -> List[str]:
    """Return a list of layering violations (empty = compliant)."""
    if channel_dir is None:
        channel_dir = Path(__file__).resolve().parent.parent / "channel"
    if not channel_dir.is_dir():
        return [f"channel package not found at {channel_dir}"]
    violations: List[str] = []
    for path in sorted(channel_dir.glob("*.py")):
        module = path.stem
        layer = CHANNEL_LAYERS.get(module)
        if layer is None:
            violations.append(
                f"{path}: module {module!r} has no assigned layer; "
                f"add it to CHANNEL_LAYERS with an explicit position"
            )
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for imported, lineno in _channel_module(node, module, 2):
                for prefix in FORBIDDEN_PREFIXES:
                    if imported == prefix or \
                            imported.startswith(prefix + "."):
                        violations.append(
                            f"{path}:{lineno}: repro.channel.{module} "
                            f"imports {imported} — the channel must not "
                            f"import its consumers"
                        )
                if imported.startswith("repro.channel."):
                    target = imported.split(".")[2]
                    target_layer = CHANNEL_LAYERS.get(target)
                    if target_layer is None:
                        continue
                    if target_layer >= layer:
                        violations.append(
                            f"{path}:{lineno}: L{layer} module "
                            f"repro.channel.{module} imports "
                            f"L{target_layer} module {imported} — layers "
                            f"may only import strictly downward"
                        )
    return violations


def _module_name(path: Path, src_dir: Path) -> str:
    """Dotted module name of ``path`` relative to ``src_dir``."""
    parts = path.relative_to(src_dir).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _absolute_imports(tree: ast.AST, module: str
                      ) -> Iterable[Tuple[str, int]]:
    """Yield ``(imported_module, lineno)`` with relative imports
    resolved against ``module``'s package."""
    package = module.split(".")
    # For a plain module the package is its parent; for a package
    # (__init__) the module name *is* the package.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = (node.module or "").split(".")
            else:
                base = package[: len(package) - node.level]
                if node.module:
                    base.extend(node.module.split("."))
            resolved = ".".join(part for part in base if part)
            # Yield only the alias-qualified names: they cover every
            # package-prefix rule (``X.y`` starts with ``X``) and catch
            # ``from repro.core import runner``-style submodule imports
            # without double-reporting the bare module.
            for alias in node.names:
                yield f"{resolved}.{alias.name}", node.lineno


def _in_package(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def check_package_layering(src_dir: Optional[Path] = None) -> List[str]:
    """Repo-wide rules: cipher encapsulation, targets layer, L0 trace
    layer, deleted-module ban."""
    if src_dir is None:
        src_dir = Path(__file__).resolve().parent.parent.parent
    repro_dir = src_dir / "repro"
    if not repro_dir.is_dir():
        return [f"repro package not found under {src_dir}"]
    violations: List[str] = []
    for path in sorted(repro_dir.rglob("*.py")):
        module = _module_name(path, src_dir)
        # Note: a package __init__ counts as inside its own package, so
        # repro/gift/__init__.py may import repro.gift submodules.
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported, lineno in _absolute_imports(tree, module):
            for cipher, allowed in CIPHER_PACKAGES.items():
                if _in_package(imported, (cipher,)) \
                        and not _in_package(module, allowed):
                    violations.append(
                        f"{path}:{lineno}: {module} imports {imported} — "
                        f"only {' / '.join(allowed)} may import {cipher}; "
                        f"go through repro.targets"
                    )
            if _in_package(module, ("repro.targets",)) \
                    and _in_package(imported, TARGETS_FORBIDDEN):
                violations.append(
                    f"{path}:{lineno}: {module} imports {imported} — "
                    f"repro.targets must not import the pipeline that "
                    f"consumes it"
                )
            if _in_package(module, ("repro.trace",)) \
                    and _in_package(imported, TRACE_FORBIDDEN):
                violations.append(
                    f"{path}:{lineno}: {module} imports {imported} — "
                    f"L0 (repro.trace) sits below the whole stack and "
                    f"may import nothing above itself"
                )
            if _in_package(imported, BANNED_MODULES):
                violations.append(
                    f"{path}:{lineno}: {module} imports the deleted "
                    f"module {imported}"
                )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: print violations, exit 1 if any."""
    channel_dir = Path(argv[0]) if argv else None
    violations = check_channel_layering(channel_dir)
    if channel_dir is None:
        # Repo-wide rules only apply to the installed tree; an explicit
        # path argument points at a synthetic channel package under test.
        violations += check_package_layering()
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("channel layering OK "
          f"({len(CHANNEL_LAYERS)} modules, L1 -> L5 acyclic); "
          "package layering OK (cipher encapsulation, targets layer, "
          "trace layer L0, deleted-module ban)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
