"""Configuration surface of the serving subsystem: resolver precedence
(argument > ``REPRO_*`` env > default), validation wording, and the
admission controller's counters."""

from __future__ import annotations

import pytest

from repro.config import (
    CONFIG_FIELDS,
    resolve_admission_policy,
    resolve_arrival_rate,
    resolve_drain_deadline,
    resolve_max_queue_depth,
    resolve_serve_duration,
)
from repro.serve.admission import AdmissionController
from repro.utils.exceptions import ConfigurationError, QueueFullError

DEFAULT_MAX_QUEUE_DEPTH = CONFIG_FIELDS["max_queue_depth"].default
DEFAULT_ADMISSION_POLICY = CONFIG_FIELDS["admission_policy"].default
DEFAULT_DRAIN_DEADLINE = CONFIG_FIELDS["drain_deadline"].default
DEFAULT_ARRIVAL_RATE = CONFIG_FIELDS["arrival_rate"].default
DEFAULT_SERVE_DURATION = CONFIG_FIELDS["serve_duration"].default

ENV_VARS = (
    "REPRO_MAX_QUEUE_DEPTH",
    "REPRO_ADMISSION_POLICY",
    "REPRO_DRAIN_DEADLINE",
    "REPRO_ARRIVAL_RATE",
    "REPRO_SERVE_DURATION",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)


class TestResolvers:
    def test_defaults(self):
        assert resolve_max_queue_depth(None) == DEFAULT_MAX_QUEUE_DEPTH
        assert resolve_admission_policy(None) == DEFAULT_ADMISSION_POLICY
        assert resolve_drain_deadline(None) == DEFAULT_DRAIN_DEADLINE
        assert resolve_arrival_rate(None) == DEFAULT_ARRIVAL_RATE
        assert resolve_serve_duration(None) == DEFAULT_SERVE_DURATION

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_QUEUE_DEPTH", "7")
        monkeypatch.setenv("REPRO_ADMISSION_POLICY", "reject")
        monkeypatch.setenv("REPRO_DRAIN_DEADLINE", "0")
        monkeypatch.setenv("REPRO_ARRIVAL_RATE", "42.5")
        monkeypatch.setenv("REPRO_SERVE_DURATION", "0.25")
        assert resolve_max_queue_depth(None) == 7
        assert resolve_admission_policy(None) == "reject"
        assert resolve_drain_deadline(None) == 0.0
        assert resolve_arrival_rate(None) == 42.5
        assert resolve_serve_duration(None) == 0.25

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_QUEUE_DEPTH", "7")
        assert resolve_max_queue_depth(3) == 3
        monkeypatch.setenv("REPRO_ADMISSION_POLICY", "reject")
        assert resolve_admission_policy("block") == "block"

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRIVAL_RATE", "")
        assert resolve_arrival_rate(None) == DEFAULT_ARRIVAL_RATE

    def test_invalid_values_raise_with_source(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            resolve_max_queue_depth(0)
        with pytest.raises(ConfigurationError, match="admission_policy"):
            resolve_admission_policy("drop")
        with pytest.raises(ConfigurationError, match="drain_deadline"):
            resolve_drain_deadline(-0.5)
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            resolve_arrival_rate(0)
        with pytest.raises(ConfigurationError, match="serve_duration"):
            resolve_serve_duration("soon")
        monkeypatch.setenv("REPRO_MAX_QUEUE_DEPTH", "many")
        with pytest.raises(ConfigurationError, match="REPRO_MAX_QUEUE_DEPTH"):
            resolve_max_queue_depth(None)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            resolve_drain_deadline(float("nan"))
        with pytest.raises(ConfigurationError, match="finite"):
            resolve_arrival_rate(float("inf"))


class TestAdmissionController:
    def test_describe_reports_resolved_knobs(self):
        controller = AdmissionController(
            max_queue_depth=5, policy="reject", drain_deadline=0.01
        )
        assert controller.describe() == {
            "max_queue_depth": 5,
            "policy": "reject",
            "drain_deadline": 0.01,
        }

    def test_reject_policy_raises_and_counts(self):
        controller = AdmissionController(max_queue_depth=1, policy="reject")
        with pytest.raises(QueueFullError, match="request queue is full"):
            controller.on_full(depth=1)
        controller.on_admitted()
        assert controller.counters() == {"admitted": 1, "rejected": 1, "blocked": 0, "expired": 0}

    def test_block_policy_counts_blocked_once_per_request(self):
        controller = AdmissionController(max_queue_depth=1, policy="block")
        controller.on_full(depth=1)  # must NOT raise and NOT count
        assert controller.counters()["blocked"] == 0
        controller.on_blocked()  # the queue records the blocked request once
        assert controller.counters()["blocked"] == 1

    def test_a_deadline_is_expired_strictly_after_its_instant(self, monkeypatch):
        """THE expiry rule (loop and both fleets call this one method): the
        deadline instant itself is still on time, anything later is counted
        as expired on this controller — not as a full-queue rejection."""
        from types import SimpleNamespace

        import repro.serve.admission as admission_module

        monkeypatch.setattr(
            admission_module, "time", SimpleNamespace(perf_counter=lambda: 100.0)
        )
        controller = AdmissionController(scope="tenant-a")
        controller.check_deadline(100.0)
        controller.check_deadline(250.0)
        assert controller.counters()["expired"] == 0
        with pytest.raises(QueueFullError, match=r"tenant-a: .*expired 500\.0ms"):
            controller.check_deadline(99.5)
        assert controller.counters()["expired"] == 1
        assert controller.counters()["rejected"] == 0
