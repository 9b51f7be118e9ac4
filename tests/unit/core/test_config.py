"""Unit tests for OverhaulConfig validation and presets."""

import dataclasses

import pytest

from repro.core import Machine
from repro.core.config import (
    OverhaulConfig,
    benchmark_config,
    paper_config,
    reference_config,
)
from repro.sim.errors import SimulationError
from repro.sim.time import from_millis, from_seconds


class TestDefaults:
    def test_paper_values(self):
        config = paper_config()
        assert config.interaction_threshold == from_seconds(2.0)
        assert config.shm_waitlist == from_millis(500)
        assert config.alert_duration == from_seconds(3.0)
        assert config.ptrace_protection
        assert not config.force_grant

    def test_clipboard_never_alerted_by_default(self):
        """Section V-C: clipboard accesses are logged, not alerted."""
        assert not paper_config().alert_on_clipboard

    def test_benchmark_preset_forces_grants(self):
        assert benchmark_config().force_grant


class TestValidation:
    def test_non_positive_threshold_rejected(self):
        with pytest.raises(SimulationError):
            OverhaulConfig(interaction_threshold=0)

    def test_waitlist_must_be_shorter_than_threshold(self):
        """Section IV-B: 'This wait duration must be sufficiently shorter
        than the 2 second interaction expiration time.'"""
        with pytest.raises(SimulationError):
            OverhaulConfig(
                interaction_threshold=from_seconds(1.0),
                shm_waitlist=from_seconds(1.0),
            )

    def test_negative_waitlist_rejected(self):
        with pytest.raises(SimulationError):
            OverhaulConfig(shm_waitlist=-1)

    def test_negative_visibility_threshold_rejected(self):
        with pytest.raises(SimulationError):
            OverhaulConfig(window_visibility_threshold=-1)

    def test_non_positive_alert_duration_rejected(self):
        with pytest.raises(SimulationError):
            OverhaulConfig(alert_duration=0)

    def test_paper_defaults_satisfy_constraints(self):
        paper_config().validate()  # must not raise

    def test_shorter_delta_with_proportional_waitlist_valid(self):
        config = OverhaulConfig(
            interaction_threshold=from_seconds(1.0),
            shm_waitlist=from_millis(250),
        )
        assert config.shm_waitlist < config.interaction_threshold


class TestFastPathSwitch:
    def test_one_fast_field(self):
        """The fast paths have one switch; reference_config() turns it off."""
        fast = [f.name for f in dataclasses.fields(OverhaulConfig)
                if f.name.startswith("fast_")]
        assert fast == ["fast_paths"]
        assert not reference_config().fast_paths
        assert paper_config().fast_paths and benchmark_config().fast_paths

    @pytest.mark.parametrize("fast_paths", [True, False])
    def test_every_component_switch_follows_it(self, fast_paths):
        with Machine.with_overhaul(OverhaulConfig(fast_paths=fast_paths)) as m:
            assert m.kernel.netlink.fast_path is fast_paths
            assert m.kernel.device_mediator.use_deferred_audit is fast_paths
            assert m.xserver.fast_display is fast_paths
            assert m.overhaul.monitor._fast is fast_paths
