"""Tests for the versioned SpeakQLConfig wire format.

Replay bundles and the serving degradation ladder both speak this
format; these tests pin the round-trip, the version gate, and the loud
rejection of unknown keys.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import CONFIG_VERSION, SpeakQLConfig


class TestRoundTrip:
    def test_default_config_round_trips(self):
        config = SpeakQLConfig()
        assert SpeakQLConfig.from_dict(config.to_dict()) == config

    def test_non_default_config_round_trips(self):
        config = SpeakQLConfig(
            top_k=2,
            use_bdb=False,
            use_dap=True,
            use_inv=True,
            literal_window_size=6,
            literal_focused=True,
        )
        assert SpeakQLConfig.from_dict(config.to_dict()) == config

    def test_dict_form_is_json_ready_and_versioned(self):
        data = SpeakQLConfig().to_dict()
        assert data["version"] == CONFIG_VERSION
        assert isinstance(data["weights"], dict)  # recursively plain
        restored = SpeakQLConfig.from_dict(json.loads(json.dumps(data)))
        assert restored == SpeakQLConfig()


class TestVersionGate:
    def test_missing_version_rejected(self):
        data = SpeakQLConfig().to_dict()
        del data["version"]
        with pytest.raises(ValueError, match="version"):
            SpeakQLConfig.from_dict(data)

    def test_version_one_rejected(self):
        # Version 1 carried ``search_kernel``; a bundle written then must
        # be refused, not replayed against a different pipeline.
        assert CONFIG_VERSION == 2
        data = SpeakQLConfig().to_dict()
        data["version"] = 1
        data["search_kernel"] = "compiled"
        with pytest.raises(ValueError, match="unsupported SpeakQLConfig version 1"):
            SpeakQLConfig.from_dict(data)

    def test_future_version_rejected(self):
        data = SpeakQLConfig().to_dict()
        data["version"] = CONFIG_VERSION + 1
        with pytest.raises(ValueError, match="unsupported"):
            SpeakQLConfig.from_dict(data)


class TestUnknownKeys:
    def test_unknown_key_rejected(self):
        data = SpeakQLConfig().to_dict()
        data["turbo_mode"] = True
        with pytest.raises(ValueError, match="turbo_mode"):
            SpeakQLConfig.from_dict(data)


class TestWithOverrides:
    def test_no_overrides_returns_self(self):
        config = SpeakQLConfig()
        assert config.with_overrides(None) is config
        assert config.with_overrides({}) is config

    def test_overrides_apply_over_current_values(self):
        config = SpeakQLConfig(top_k=5)
        derived = config.with_overrides({"top_k": 1, "use_dap": True})
        assert derived.top_k == 1
        assert derived.use_dap is True
        assert derived.use_bdb == config.use_bdb  # untouched knobs kept
        assert config.top_k == 5  # frozen original

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="turbo_mode"):
            SpeakQLConfig().with_overrides({"turbo_mode": True})

    def test_version_is_not_an_override(self):
        with pytest.raises(ValueError, match="version"):
            SpeakQLConfig().with_overrides({"version": 2})
