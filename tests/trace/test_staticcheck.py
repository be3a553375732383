"""Static gates over the L0 trace layer: secrets and layering."""

from pathlib import Path

from repro.staticcheck.baseline import load_baseline_fingerprints
from repro.staticcheck.layering import (
    TRACE_FORBIDDEN,
    check_package_layering,
)
from repro.staticcheck.project import analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestSecretAnnotations:
    def test_replay_path_adds_no_unintentional_findings(self):
        """Every finding in the trace stack is baselined.

        The recorder/replay attributes carry key-dependent addresses
        and are declared ``@secret_attributes``; the analyzer findings
        that follow from that are intentional and recorded in the
        committed baseline.  Anything beyond the baseline is a
        regression in this PR's code.
        """
        findings, _ = analyze_paths([
            str(REPO_ROOT / "src" / "repro" / "trace"),
            str(REPO_ROOT / "src" / "repro" / "tracecli.py"),
        ])
        baselined = load_baseline_fingerprints(
            REPO_ROOT / "staticcheck-baseline.json"
        )
        fresh = [f for f in findings
                 if f.fingerprint not in baselined]
        assert fresh == [], (
            "unbaselined findings in the trace stack: "
            + "; ".join(f.fingerprint for f in fresh)
        )

    def test_secret_attributes_declared(self):
        from repro.staticcheck.secrets import SECRET_ATTRIBUTES_ATTR
        from repro.trace import recorder, replay

        def declared(cls):
            return getattr(cls, SECRET_ATTRIBUTES_ATTR)

        assert "records" in declared(recorder.TraceRecorder)
        assert "inner" in declared(recorder.RecordingVictim)
        assert "trace" in declared(replay.ReplayVictim)


class TestTraceLayering:
    def test_repo_tree_is_compliant(self):
        assert check_package_layering() == []

    def test_forbidden_list_covers_the_stack(self):
        for package in ("repro.channel", "repro.core", "repro.engine",
                        "repro.cli", "repro.tracecli"):
            assert package in TRACE_FORBIDDEN

    def test_upward_import_is_caught(self, tmp_path):
        pkg = tmp_path / "repro" / "trace"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "sneaky.py").write_text(
            "from repro.core.attack import GrinchAttack\n"
        )
        violations = check_package_layering(tmp_path)
        assert len(violations) == 1
        assert "repro.trace.sneaky" in violations[0]
        assert "L0" in violations[0]

    def test_relative_upward_import_is_caught(self, tmp_path):
        pkg = tmp_path / "repro" / "trace"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "sneaky.py").write_text(
            "from ..channel.observer import ObservationChannel\n"
        )
        violations = check_package_layering(tmp_path)
        assert len(violations) == 1
        assert "repro.channel" in violations[0]

    def test_allowed_imports_pass(self, tmp_path):
        pkg = tmp_path / "repro" / "trace"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "fine.py").write_text(
            "from ..targets.trace import MemoryAccess\n"
            "from ..cache.geometry import CacheGeometry\n"
            "from ..seeding import derive_key\n"
            "from ..staticcheck.secrets import secret_attributes\n"
        )
        assert check_package_layering(tmp_path) == []
