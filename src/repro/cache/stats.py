"""Decode-work accounting for the cache subsystem.

The batched inference engine of PR 1 counted *module forwards*; with
incremental decoding a "forward" can encode anywhere from two tokens (one
appended path item plus the re-projected objective) to a full right-aligned
window, so the perf harness needs a finer unit.  :class:`DecodeStats` counts
**token-work**: the number of ``(row, column)`` positions each transformer
call actually encodes.  Full windows contribute ``batch * width``;
incremental steps contribute ``batch * new_tokens``; a shared-history depth
contributes ``roots * (history + 1) + batch * (appended + 1)``.

One instance lives on every :class:`~repro.core.irn.IRN`
(``irn.decode_stats``) and is reset by ``fit``; the benchmark snapshots it
around each measured workload.

The counters live in the process-wide metrics registry
(:mod:`repro.obs.registry`) under a per-instance ``cache.decode.<n>``
scope: the evaluation protocol's rollout threads score independent
instance partitions against ONE shared backbone, and each
``record_*`` call applies both of its field increments in a single
registry-lock acquisition, so concurrent updates never tear and
``snapshot`` (one locked group read) always sees a consistent view.  The
same counters surface verbatim in ``repro-irs metrics`` exports.  Field
reads (``stats.full_forwards``) keep working via ``__getattr__`` so no
caller changes.
"""

from __future__ import annotations

from repro.obs.registry import MetricGroup, get_registry

__all__ = ["DecodeStats"]


class DecodeStats:
    """Counters of transformer decode work, by kind of forward pass."""

    _FIELDS = (
        "full_forwards",
        "incremental_forwards",
        "fallback_forwards",
        "tokens_full",
        "tokens_incremental",
        "tokens_fallback",
    )

    def __init__(self) -> None:
        registry = get_registry()
        self._group = MetricGroup(
            registry, registry.scope("cache.decode"), counters=self._FIELDS
        )

    def __getattr__(self, name: str):
        # Counter fields read straight from the registry; everything else is
        # a genuine miss.  (Only reached when normal lookup fails, so the
        # ``_group`` access below cannot recurse.)
        if name in DecodeStats._FIELDS:
            return self.__dict__["_group"].value(name)
        raise AttributeError(name)

    def reset(self) -> None:
        self._group.reset()

    # ------------------------------------------------------------------ #
    def record_full(self, tokens: int) -> None:
        """A full-window forward (no cache involved)."""
        self._group.record(add={"full_forwards": 1, "tokens_full": int(tokens)})

    def record_incremental(self, tokens: int) -> None:
        """An incremental step attending over cached prefix K/V."""
        self._group.record(
            add={"incremental_forwards": 1, "tokens_incremental": int(tokens)}
        )

    def record_fallback(self, tokens: int) -> None:
        """A depth that could keep nothing from the one before (see cache.kv):
        history shared within the depth, or every row's own window."""
        self._group.record(add={"fallback_forwards": 1, "tokens_fallback": int(tokens)})

    # ------------------------------------------------------------------ #
    @property
    def forwards(self) -> int:
        """Total transformer calls of any kind (one locked read)."""
        values = self._group.values()
        return (
            values["full_forwards"]
            + values["incremental_forwards"]
            + values["fallback_forwards"]
        )

    @property
    def tokens_encoded(self) -> int:
        """Total token-work across all forward kinds (one locked read)."""
        values = self._group.values()
        return (
            values["tokens_full"] + values["tokens_incremental"] + values["tokens_fallback"]
        )

    def snapshot(self) -> dict:
        """A plain-dict copy (for before/after deltas in the benchmark).

        All fields are read under one registry-lock acquisition, so the
        derived totals are always internally consistent — a snapshot taken
        while another thread is mid-``record_*`` sees either none or all of
        that call's increments.
        """
        report = self._group.values()
        report["forwards"] = (
            report["full_forwards"]
            + report["incremental_forwards"]
            + report["fallback_forwards"]
        )
        report["tokens_encoded"] = (
            report["tokens_full"] + report["tokens_incremental"] + report["tokens_fallback"]
        )
        return report

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Field-wise ``after - before`` of two :meth:`snapshot` dicts."""
        return {key: after[key] - before[key] for key in after}
