"""The cipher-target registry and its staticcheck obligations."""

import pytest

from repro.cache.geometry import CacheGeometry, geometry_preset
from repro.targets import (
    get_target,
    registered_targets,
    resolve_target_for,
    target_names,
)

BUILTINS = ("gift64", "gift128", "giftcofb", "present80")


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(target_names()) >= set(BUILTINS)

    def test_get_target_returns_the_named_target(self):
        for name in BUILTINS:
            assert get_target(name).name == name

    def test_unknown_target_lists_the_known_ones(self):
        with pytest.raises(KeyError, match="gift64"):
            get_target("speck")

    def test_registered_targets_is_a_copy(self):
        snapshot = registered_targets()
        snapshot["bogus"] = None
        assert "bogus" not in registered_targets()


class TestResolveTargetFor:
    def test_attack_target_attribute_wins(self):
        target = get_target("present80")
        victim = target.make_victim(0)
        assert resolve_target_for(victim) is target

    def test_cofb_victim_resolves_to_the_cofb_target(self):
        target = get_target("giftcofb")
        victim = target.make_victim(1)
        assert resolve_target_for(victim) is target

    def test_width_fallback_for_plain_gift_victims(self):
        from repro.targets.gift import TracedGift64, TracedGift128

        assert resolve_target_for(TracedGift64(0)).name == "gift64"
        assert resolve_target_for(TracedGift128(0)).name == "gift128"

    def test_unresolvable_victim_raises(self):
        class Mystery:
            width = 48

        with pytest.raises(TypeError):
            resolve_target_for(Mystery())


class TestDeclaredLayouts:
    """Each target's declared S-box layout must resolve with nonzero
    observation classes: the effort model and the leakage analyzer both
    read it."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_layout_resolves_with_nonzero_classes(self, name):
        layout = get_target(name).sbox_layout()
        partition = layout.partition(geometry_preset("paper"))
        assert partition.class_count > 0

    @pytest.mark.parametrize("name", BUILTINS)
    def test_paper_geometry_separates_all_entries(self, name):
        layout = get_target(name).sbox_layout()
        assert layout.partition(geometry_preset("paper")).class_count == 16

    @pytest.mark.parametrize("name", BUILTINS)
    def test_joint_round_bound_is_positive(self, name):
        target = get_target(name)
        for preset in ("paper", "paper-8word", "arm"):
            assert target.joint_bits_per_round(
                geometry_preset(preset)) > 0.0

    def test_joint_bound_never_below_any_single_site(self):
        geometry = CacheGeometry(line_words=8)
        for target in registered_targets().values():
            for segment in range(target.segments):
                joint = target.joint_round_partition(segment, geometry)
                for site in target.observation_partitions(
                        segment, geometry):
                    assert joint.shannon_bits >= site.shannon_bits - 1e-9
