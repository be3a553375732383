"""The import-layering checker as a library: the real channel package
must be clean, and each rule must fire on a synthetic violator."""

from repro.staticcheck.layering import (
    BANNED_MODULES,
    CHANNEL_LAYERS,
    CIPHER_PACKAGES,
    FORBIDDEN_PREFIXES,
    TARGETS_FORBIDDEN,
    check_channel_layering,
    check_package_layering,
    main,
)


def make_channel(tmp_path, modules):
    channel = tmp_path / "channel"
    channel.mkdir()
    for name, source in modules.items():
        (channel / f"{name}.py").write_text(source)
    return channel


CLEAN_STACK = {
    "monitor": "STATE = {}\n",
    "primitive": "from repro.channel.monitor import STATE\n",
    "transport": "from repro.channel.primitive import STATE\n",
    "degradation": "from repro.channel.transport import STATE\n",
    "defender": "from repro.channel.degradation import STATE\n",
    "observer": "from repro.channel.defender import STATE\n",
    "__init__": "from repro.channel.observer import STATE\n",
}


class TestRealPackage:
    def test_shipped_channel_package_is_compliant(self):
        assert check_channel_layering() == []

    def test_layer_table_is_acyclic_l1_to_l4(self):
        # Strictly increasing indices over the documented stack order
        # guarantee "import strictly downward" admits no cycle.
        order = ["monitor", "primitive", "transport", "degradation",
                 "defender", "observer", "__init__"]
        assert sorted(CHANNEL_LAYERS, key=CHANNEL_LAYERS.get) == order
        assert len(set(CHANNEL_LAYERS.values())) == len(CHANNEL_LAYERS)

    def test_consumer_packages_are_forbidden(self):
        assert "repro.core" in FORBIDDEN_PREFIXES
        assert "repro.engine" in FORBIDDEN_PREFIXES


class TestSyntheticViolations:
    def test_clean_synthetic_stack_passes(self, tmp_path):
        channel = make_channel(tmp_path, CLEAN_STACK)
        assert check_channel_layering(channel) == []

    def test_upward_import_is_flagged(self, tmp_path):
        modules = dict(CLEAN_STACK)
        modules["primitive"] = "import repro.channel.transport\n"
        channel = make_channel(tmp_path, modules)
        violations = check_channel_layering(channel)
        assert len(violations) == 1
        assert "strictly downward" in violations[0]
        assert "repro.channel.primitive" in violations[0]

    def test_same_layer_import_is_flagged(self, tmp_path):
        # "Strictly lower" also forbids sideways imports of yourself's
        # layer — here observer importing observer via the package.
        modules = dict(CLEAN_STACK)
        modules["degradation"] = \
            "from repro.channel import degradation as me\n"
        channel = make_channel(tmp_path, modules)
        assert any("strictly downward" in v
                   for v in check_channel_layering(channel))

    def test_relative_upward_import_is_resolved(self, tmp_path):
        modules = dict(CLEAN_STACK)
        modules["transport"] = "from . import observer\n"
        channel = make_channel(tmp_path, modules)
        violations = check_channel_layering(channel)
        assert any("repro.channel.observer" in v for v in violations)

    def test_forbidden_core_import_is_flagged(self, tmp_path):
        modules = dict(CLEAN_STACK)
        modules["observer"] = ("from repro.channel.degradation import STATE\n"
                               "from repro.core.attack import GrinchAttack\n")
        channel = make_channel(tmp_path, modules)
        violations = check_channel_layering(channel)
        assert len(violations) == 1
        assert "must not import its consumers" in violations[0]

    def test_forbidden_engine_import_is_flagged(self, tmp_path):
        modules = dict(CLEAN_STACK)
        modules["monitor"] = "import repro.engine\n"
        channel = make_channel(tmp_path, modules)
        assert any("repro.engine" in v
                   for v in check_channel_layering(channel))

    def test_unassigned_module_is_flagged(self, tmp_path):
        modules = dict(CLEAN_STACK)
        modules["rogue"] = "x = 1\n"
        channel = make_channel(tmp_path, modules)
        violations = check_channel_layering(channel)
        assert any("no assigned layer" in v for v in violations)

    def test_missing_package_reports_rather_than_crashes(self, tmp_path):
        violations = check_channel_layering(tmp_path / "nonexistent")
        assert violations and "not found" in violations[0]


def make_src(tmp_path, files):
    """Lay out a synthetic src/repro tree; keys are repro-relative
    paths like ``core/attack.py``."""
    src = tmp_path / "src"
    for rel, source in files.items():
        path = src / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return src


class TestPackageLayering:
    def test_shipped_tree_is_compliant(self):
        assert check_package_layering() == []

    def test_rule_tables_cover_the_refactor(self):
        assert set(CIPHER_PACKAGES) == {"repro.gift", "repro.present"}
        assert "repro.core" in TARGETS_FORBIDDEN
        assert "repro.channel" in TARGETS_FORBIDDEN
        assert "repro.core.runner" in BANNED_MODULES
        assert "repro.variants.observations" in BANNED_MODULES
        assert "repro.analysis.experiments" in BANNED_MODULES

    def test_gift_import_outside_targets_is_flagged(self, tmp_path):
        src = make_src(tmp_path, {
            "core/attack.py": "from ..gift.lut import TracedGift64\n",
        })
        violations = check_package_layering(src)
        assert len(violations) == 1
        assert "go through repro.targets" in violations[0]

    def test_targets_may_import_ciphers(self, tmp_path):
        src = make_src(tmp_path, {
            "targets/gift.py": "from ..gift.cipher import Gift64\n",
            "targets/present.py": "import repro.present.cipher\n",
            "gift/__init__.py": "from .lut import TracedGift64\n",
        })
        assert check_package_layering(src) == []

    def test_targets_importing_the_pipeline_is_flagged(self, tmp_path):
        src = make_src(tmp_path, {
            "targets/rogue.py": "from ..core.attack import GrinchAttack\n",
        })
        violations = check_package_layering(src)
        assert len(violations) == 1
        assert "must not import the pipeline" in violations[0]

    def test_core_may_import_targets(self, tmp_path):
        src = make_src(tmp_path, {
            "core/attack.py": "from ..targets.registry import get_target\n",
        })
        assert check_package_layering(src) == []

    def test_deleted_shim_import_is_flagged(self, tmp_path):
        src = make_src(tmp_path, {
            "engine/thing.py": "from repro.core.runner import Runner\n",
        })
        violations = check_package_layering(src)
        assert any("deleted module" in v for v in violations)

    def test_deleted_wrapper_modules_are_flagged(self, tmp_path):
        src = make_src(tmp_path, {
            "engine/thing.py": (
                "from repro.analysis.experiments import run_table1\n"
                "from ..core.profile import PROFILE_64\n"
                "from repro.cache import hierarchy\n"
            ),
        })
        violations = check_package_layering(src)
        assert len(violations) == 3
        for deleted in ("repro.analysis.experiments", "repro.core.profile",
                        "repro.cache.hierarchy"):
            assert any(deleted in v and "deleted module" in v
                       for v in violations)

    def test_deleted_batch_victim_module_is_flagged(self, tmp_path):
        src = make_src(tmp_path, {
            "engine/thing.py": "from ..targets.batch import wrapper\n",
            "core/other.py": "from repro.targets import batch\n",
        })
        violations = check_package_layering(src)
        assert len(violations) == 2
        assert all("repro.targets.batch" in v and "deleted module" in v
                   for v in violations)

    def test_from_import_of_a_shim_submodule_is_flagged(self, tmp_path):
        src = make_src(tmp_path, {
            "engine/thing.py": "from repro.variants import observations\n",
        })
        violations = check_package_layering(src)
        assert any("repro.variants.observations" in v for v in violations)

    def test_missing_tree_reports_rather_than_crashes(self, tmp_path):
        violations = check_package_layering(tmp_path / "nowhere")
        assert violations and "not found" in violations[0]


class TestCliExitCodes:
    def test_clean_package_exits_zero(self, tmp_path, capsys):
        channel = make_channel(tmp_path, CLEAN_STACK)
        assert main([str(channel)]) == 0
        assert "layering OK" in capsys.readouterr().out

    def test_violating_package_exits_one(self, tmp_path, capsys):
        modules = dict(CLEAN_STACK)
        modules["primitive"] = "import repro.channel.observer\n"
        channel = make_channel(tmp_path, modules)
        assert main([str(channel)]) == 1
        assert "violation" in capsys.readouterr().err
