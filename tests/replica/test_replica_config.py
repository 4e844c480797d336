"""Resolver tests for the replication configuration surface."""

from __future__ import annotations

import pytest

from repro.config import resolve_num_replicas, resolve_refit_at
from repro.utils.exceptions import ConfigurationError


class TestNumReplicas:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLICAS", raising=False)
        assert resolve_num_replicas() == 1

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICAS", "4")
        assert resolve_num_replicas(2) == 2
        assert resolve_num_replicas() == 4

    def test_empty_environment_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICAS", "")
        assert resolve_num_replicas() == 1

    @pytest.mark.parametrize("bad", [0, -1, "zero"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="num_replicas"):
            resolve_num_replicas(bad)

    def test_invalid_environment_names_its_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICAS", "many")
        with pytest.raises(ConfigurationError, match=r"\$REPRO_REPLICAS"):
            resolve_num_replicas()


class TestRefitAt:
    def test_default_is_no_refit(self, monkeypatch):
        monkeypatch.delenv("REPRO_REFIT_AT", raising=False)
        assert resolve_refit_at() is None

    def test_environment_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFIT_AT", "1.5")
        assert resolve_refit_at() == 1.5
        assert resolve_refit_at(0.25) == 0.25

    def test_empty_environment_means_no_refit(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFIT_AT", "")
        assert resolve_refit_at() is None

    @pytest.mark.parametrize("bad", [0, -0.5, float("inf"), float("nan"), "soon"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="refit_at"):
            resolve_refit_at(bad)
