"""The traced run: spans from outside the program, and the per-layer metrics.

Layers are the package names under ``src/repro/``.  Per-layer numbers come
from three sources, none of which edits the program:

(a) deltas of public counters around each unit (``workloads.COUNTER_FIELDS``,
    ``surface.stats()``, the ``Response`` fields);
(b) spans from wrappers this module installs on a fixed table of public
    callables (:data:`SPAN_TABLE`) for the traced rounds only;
(c) probes: direct timed calls with the shapes the workload produced.

Spans inside forked workers stay there (ROADMAP 5a crosses that boundary);
for ``fleet_mixed`` the parent-side spans plus the worker-measured
``Response.remote_*`` durations are what is reported.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time

import numpy as np

from repro.core.beam import BeamSearchPlanner
from repro.distributed import wire
from repro.serve.request import ServeRequest
from repro.shard.topk import stable_topk
from repro.tenant import TenantRegistry

import driver
import workloads

#: (module, owner class or None for a module-level function, attribute)
SPAN_TABLE = (
    ("repro.core.beam", "BeamSearchPlanner", "plan_for_requests"),
    ("repro.core.beam", "BeamSearchPlanner", "plan_paths_batch"),
    ("repro.core.beam", None, "sharded_topk"),  # shard: the name beam.py calls
    ("repro.core.irn", "IRN", "score_with_objective_batch"),
    ("repro.core.irn", "IRN", "begin_decoding_session"),
    ("repro.core.irn", "IRN", "advance_decoding_session"),
    ("repro.cache.kv", "LayerKVCache", "extend"),
    ("repro.cache.kv", "LayerKVCache", "reorder"),
    ("repro.cache.memo", "PlanCache", "get"),
    ("repro.cache.memo", "PlanCache", "put"),
    ("repro.retrieval.base", "CandidateGenerator", "candidates"),
    ("repro.serve.api", "TypedServingSurface", "serve"),
    ("repro.serve.api", "Response", "stamp"),
    ("repro.serve.api", "Response", "from_envelope"),
    ("repro.serve.loop", "ServingLoop", "enqueue"),
    ("repro.serve.queue", "RequestQueue", "put"),
    ("repro.tenant.registry", "TenantRegistry", "resolve"),
    ("repro.tenant.registry", "TenantRegistry", "plan_batch"),
    ("repro.replica.dispatch", "Dispatcher", "pick"),
    ("repro.distributed.remote", "RemoteReplicaSet", "enqueue"),
    ("repro.distributed.wire", None, "encode_request_batch"),
    ("repro.distributed.wire", None, "decode_response_batch"),
    ("repro.distributed.wire", None, "send_frame"),
)
LAYERS = ("core", "nn", "cache", "shard", "retrieval", "serve", "tenant", "replica", "distributed")
#: span layer = the package of the *callee*; two table rows live in a module
#: of another layer than the one they are charged to
_LAYER_OVERRIDES = {"sharded_topk": "shard", "IRN": "nn"}


def _layer(module: str, owner: "str | None", attr: str) -> str:
    return _LAYER_OVERRIDES.get(owner or attr, module.split(".")[1])


class SpanRecorder:
    """In-memory spans: name, thread, start, end, parent, self time, unit label."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.unit = ""  # label of the unit in progress; spans outside units are dropped
        self._local = threading.local()
        self._installed: "list[tuple]" = []

    # ---- wrappers ---- #
    def _wrap(self, name: str, layer: str, fn):
        spans = self.spans
        local = self._local
        recorder = self

        def traced(*args, **kwargs):
            unit = recorder.unit
            if not unit:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, layer, threading.get_ident(), 0.0, 0.0,
                      stack[-1] if stack else -1, 0.0, unit]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = ended = time.perf_counter()
                stack.pop()
                duration = ended - record[3]
                record[6] += duration  # self = duration - children (subtracted below)
                if record[5] >= 0:
                    spans[record[5]][6] -= duration

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        for module_name, owner_name, attr in SPAN_TABLE:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = owner.__dict__[attr]
            name = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attr}"
            layer = _layer(module_name, owner_name, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, layer, raw.__func__))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, layer, raw.__func__))
            else:
                wrapped = self._wrap(name, layer, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # ---- reading ---- #
    def self_seconds(self, unit_prefix: str) -> "tuple[dict, dict, dict]":
        """``(self seconds per layer, per span name, call count per name)``."""
        by_layer = {layer: 0.0 for layer in LAYERS}
        by_name: dict = {}
        calls: dict = {}
        for name, layer, _tid, _start, _end, _parent, self_s, unit in self.spans:
            if not unit.startswith(unit_prefix):
                continue
            by_layer[layer] += self_s
            by_name[name] = by_name.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        return by_layer, by_name, calls

    def total_seconds(self, name: str, unit_prefix: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[0] == name and s[7].startswith(unit_prefix))

    def write(self, path: str) -> None:
        keys = ("name", "layer", "thread", "start", "end", "parent", "self_s", "unit")
        with open(path, "w") as handle:
            json.dump({"keys": keys, "spans": self.spans}, handle)


# --------------------------------------------------------------------- #
# (c) probes
# --------------------------------------------------------------------- #
def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(1000.0 * (time.perf_counter() - started))
    return statistics.median(samples)


def probes(fixture, contexts, idle_script, topk_shape) -> dict:
    """Direct timed calls, on the shapes the workload produced."""
    out = {}
    planner = fixture.reference
    contexts = contexts[:16]
    args = ([list(c[0]) for c in contexts], [c[1] for c in contexts], [c[2] for c in contexts])

    def cold(fn):
        def run():
            planner.invalidate_caches()
            fn()
        return run

    cursor = itertools.count()

    def plan_one(target):
        def run():
            c = contexts[next(cursor) % len(contexts)]
            target.plan_path(list(c[0]), c[1], c[2])
        return run

    out["core.plan_path_ms"] = _median_ms(cold(plan_one(planner)), 8)
    out["core.plan_batch16_ms"] = _median_ms(cold(lambda: planner.plan_paths_batch(*args)), 3)
    out["nn.score_batch16_ms"] = _median_ms(
        lambda: planner.backbone.score_with_objective_batch(*args), 8
    )
    out["core.plan_path_exact_ms"] = out["core.plan_path_pruned_ms"] = 0.0
    out["retrieval.candidates_ms"] = 0.0
    generator = planner.candidate_generator
    if generator is not None:
        exact = BeamSearchPlanner(planner.backbone, **workloads.PLANNER).fit(fixture.split)
        out["core.plan_path_pruned_ms"] = out["core.plan_path_ms"]
        out["core.plan_path_exact_ms"] = _median_ms(
            lambda: (exact.invalidate_caches(), plan_one(exact)()), 5
        )
        out["retrieval.candidates_ms"] = _median_ms(
            lambda: [generator.candidates(list(c[0]), c[1], c[2]) for c in contexts], 5
        ) / len(contexts)
    rows, vocab = topk_shape
    scores = np.random.default_rng(0).standard_normal((rows, vocab))
    out["shard.topk_us"] = 1000.0 * _median_ms(
        lambda: stable_topk(scores, workloads.PLANNER["branch_factor"]), 20
    )

    # One resident op with nothing else in flight.
    def roundtrip():
        session = driver.Session(idle_script)
        fixture.surface.serve(session.request()).result(timeout=driver.OP_TIMEOUT_S)

    roundtrip()  # plans it
    out["serve.idle_roundtrip_ms"] = _median_ms(roundtrip, 30)

    # Codec cost on a 32-row batch shaped like the workload's requests.
    entries = [
        (i, ServeRequest.create("next_step", c[0], c[1], path_so_far=c[0][:6], user_index=c[2],
                                tenant="irs-a"))
        for i, c in enumerate((contexts * 2)[:32])
    ]
    payload = wire.encode_request_batch(entries)
    records = [
        wire.ResponseRecord(i, True, answer=7, served_generation=1, batch_tag=i,
                            queue_wait_s=0.0005, service_s=0.002)
        for i in range(32)
    ]
    response_payload = wire.encode_response_batch(records)
    out["distributed.encode_us_per_req"] = 1000.0 / 32 * (
        _median_ms(lambda: wire.encode_request_batch(entries), 50)
        + _median_ms(lambda: wire.encode_response_batch(records), 50)
    )
    out["distributed.decode_us_per_req"] = 1000.0 / 32 * (
        _median_ms(lambda: wire.decode_request_batch(payload), 50)
        + _median_ms(lambda: wire.decode_response_batch(response_payload), 50)
    )
    registry = TenantRegistry()
    for tenant in workloads.FLEET_TENANTS:
        registry.add(tenant, planner)
    request = entries[0][1]
    out["tenant.resolve_us"] = 1000.0 * _median_ms(
        lambda: [registry.resolve(request) for _ in range(100)], 20
    ) / 100
    return out


# --------------------------------------------------------------------- #
# Per-layer metrics of one traced run
# --------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(seconds) -> float:
    seconds = sorted(seconds)
    return 1000.0 * seconds[len(seconds) // 2] if seconds else 0.0


def per_layer_metrics(fixture, recorder, traced, stats_before, stats_after,
                      plain_throughput: float, traced_throughput: float) -> dict:
    """Every :data:`PER_LAYER` metric the traced rounds can give.

    ``traced`` is ``(closed units, paced units)`` run with the wrappers
    installed and responses kept.  The run's own diagnosis values
    (``bench.*``, ``host.*``, timed stages) are merged in by the caller.
    """
    closed_units, paced_units = traced
    units = closed_units + paced_units
    closed_ops = sum(u.ops for u in closed_units)
    closed_cpu = sum(u.cpu_s for u in closed_units)
    # Closed units are lockstep, so their counts repeat exactly for a seed;
    # a paced unit's batch composition depends on thread timing.
    count = {key: sum(u.counters[key] for u in closed_units) for key in units[0].counters}
    all_ops = sum(u.ops for u in units)
    out = {
        "core.replans_per_op": _ratio(count["replans"], closed_ops),
        "cache.step_hit_ratio": _ratio(count["step_hits"], count["step_hits"] + count["step_misses"]),
        "cache.plan_hit_ratio": _ratio(count["plan_hits"], count["plan_hits"] + count["plan_misses"]),
        "nn.forwards_per_op": _ratio(count["forwards"], closed_ops),
        "nn.tokens_encoded_per_op": _ratio(count["tokens_encoded"], closed_ops),
        "nn.fallback_token_share": _ratio(count["tokens_fallback"], count["tokens_encoded"]),
        "cache.kv_copied_bytes_per_op": _ratio(count["kv_copied_bytes"], closed_ops),
        "retrieval.candidates_mean": _ratio(
            count["retrieval_candidates"],
            count["retrieval_requests"] - count["retrieval_fallbacks"],
        ),
        "retrieval.fallback_share": _ratio(count["retrieval_fallbacks"], count["retrieval_requests"]),
    }

    # Response fields: where an op's time went, as the program stamped it.
    responses = [pair for u in units for pair in u.responses]
    out["serve.queue_wait_ms_p50"] = _p50_ms(r.queue_wait_s for _, r in responses)
    out["serve.service_ms_p50"] = _p50_ms(r.service_s for _, r in responses)
    first_batches = {(r.replica_index, r.batch_tag) for first, r in responses if first}
    nexts = [r for first, r in responses if not first]
    out["serve.hol_share"] = _ratio(
        sum(1 for r in nexts if (r.replica_index, r.batch_tag) in first_batches), len(nexts)
    )
    remote = [r for _, r in responses if r.remote_service_s is not None]
    out["distributed.remote_queue_wait_ms_p50"] = _p50_ms(r.remote_queue_wait_s for r in remote)
    out["distributed.remote_service_ms_p50"] = _p50_ms(r.service_s for r in remote)
    out["distributed.parent_overhead_ms_p50"] = _p50_ms(
        max(r.latency_s - r.remote_service_s, 0.0) for r in remote
    )

    # surface.stats() deltas over the traced rounds.
    def delta(*path):
        before, after = stats_before, stats_after
        for key in path:
            before, after = before.get(key, {}), after.get(key, {})
        return (after or 0) - (before or 0)

    batches = delta("micro_batches", "count")
    served = delta("served")
    out["serve.batch_size_mean"] = _ratio(served, batches)
    out["serve.queue_depth_mean"] = stats_after["queue_depth"]["mean"]
    out["serve.blocked"] = delta("admission", "blocked")
    out["serve.rejected"] = delta("admission", "rejected")
    transport = "transport" in stats_after
    out["distributed.bytes_per_op"] = _ratio(delta("transport", "bytes_sent"), all_ops) if transport else 0.0
    out["distributed.redispatched"] = delta("transport", "redispatched") if transport else 0
    out["distributed.duplicate_responses"] = (
        delta("transport", "duplicate_responses") if transport else 0
    )
    out["replica.dispatch_imbalance"] = 0.0
    out["tenant.rejects"] = 0
    if transport:
        before = {r["index"]: r["dispatched"] for r in stats_before["replicas"]}
        sent = [r["dispatched"] - before.get(r["index"], 0) for r in stats_after["replicas"]]
        out["replica.dispatch_imbalance"] = _ratio(max(sent), sum(sent) / len(sent)) - 1.0
        out["tenant.rejects"] = sum(
            t.get("admission", {}).get("rejected", 0)
            for t in stats_after.get("tenants", {}).values()
        )

    # Spans of the traced closed units: self time per op, and each layer's
    # share of the process tree's CPU over those units.
    by_layer, by_name, calls = recorder.self_seconds("closed")
    per_op_ms = lambda name: 1000.0 * _ratio(by_name.get(name, 0.0), closed_ops)  # noqa: E731
    out["core.plan_for_requests_self_ms"] = per_op_ms("BeamSearchPlanner.plan_for_requests")
    out["core.plan_paths_batch_self_ms"] = per_op_ms("BeamSearchPlanner.plan_paths_batch")
    out["nn.score_batch_self_ms"] = sum(
        per_op_ms(f"IRN.{attr}")
        for attr in ("score_with_objective_batch", "begin_decoding_session", "advance_decoding_session")
    )
    out["serve.submit_us"] = 1e6 * _ratio(
        recorder.total_seconds("TypedServingSurface.serve", "closed"), closed_ops
    )
    out["replica.pick_us"] = 1e6 * _ratio(
        recorder.total_seconds("Dispatcher.pick", "closed"), calls.get("Dispatcher.pick", 0)
    )
    for layer in LAYERS:
        out[f"trace.{layer}_share"] = _ratio(by_layer[layer], closed_cpu)
    out["trace.unattributed_share"] = max(1.0 - _ratio(sum(by_layer.values()), closed_cpu), 0.0)
    out["bench.trace_overhead_share"] = 1.0 - _ratio(traced_throughput, plain_throughput)

    # Probes, on the contexts and score shapes this run produced.
    sessions = [s for u in closed_units for s in u.sessions]
    contexts = list(dict.fromkeys(s.script.context for s in sessions if s.script.fresh))
    if len(contexts) < 16:
        contexts += [s.script.context for s in sessions][: 16 - len(contexts)]
    # the lockstep beam scores beam_width rows per planned instance and depth
    rows = workloads.PLANNER["beam_width"] * min(fixture.spec.window, len(sessions))
    vocab = fixture.split.corpus.vocab.size
    if fixture.reference.candidate_generator is not None:
        vocab = int(out["retrieval.candidates_mean"]) or vocab
    out.update(probes(fixture, contexts, sessions[0].script, (rows, vocab)))
    return out


# --------------------------------------------------------------------- #
# Per-layer metric table: (name, unit, better)
# --------------------------------------------------------------------- #
PER_LAYER = (
    # (a) exact counts and counters
    ("core.replans_per_op", "count", "lower"),
    ("cache.step_hit_ratio", "ratio", "higher"),
    ("cache.plan_hit_ratio", "ratio", "higher"),
    ("nn.forwards_per_op", "count", "lower"),
    ("nn.tokens_encoded_per_op", "count", "lower"),
    ("nn.fallback_token_share", "ratio", "lower"),
    ("cache.kv_copied_bytes_per_op", "B", "lower"),
    ("retrieval.candidates_mean", "count", "lower"),
    ("retrieval.fallback_share", "ratio", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.service_ms_p50", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.queue_depth_mean", "count", "lower"),
    ("serve.blocked", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.hol_share", "ratio", "lower"),
    ("replica.dispatch_imbalance", "ratio", "lower"),
    ("distributed.bytes_per_op", "B", "lower"),
    ("distributed.redispatched", "count", "lower"),
    ("distributed.duplicate_responses", "count", "lower"),
    ("distributed.remote_queue_wait_ms_p50", "ms", "lower"),
    ("distributed.remote_service_ms_p50", "ms", "lower"),
    ("distributed.parent_overhead_ms_p50", "ms", "lower"),
    ("tenant.rejects", "count", "lower"),
    # (b) spans, traced closed units
    ("core.plan_for_requests_self_ms", "ms", "lower"),
    ("core.plan_paths_batch_self_ms", "ms", "lower"),
    ("nn.score_batch_self_ms", "ms", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("replica.pick_us", "us", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
) + tuple((f"trace.{layer}_share", "ratio", "lower") for layer in LAYERS) + (
    # (c) probes and timed stages
    ("core.plan_path_ms", "ms", "lower"),
    ("core.plan_batch16_ms", "ms", "lower"),
    ("nn.score_batch16_ms", "ms", "lower"),
    ("core.plan_path_exact_ms", "ms", "lower"),
    ("core.plan_path_pruned_ms", "ms", "lower"),
    ("shard.topk_us", "us", "lower"),
    ("retrieval.candidates_ms", "ms", "lower"),
    ("retrieval.fit_s", "s", "lower"),
    ("serve.idle_roundtrip_ms", "ms", "lower"),
    ("distributed.encode_us_per_req", "us", "lower"),
    ("distributed.decode_us_per_req", "us", "lower"),
    ("tenant.resolve_us", "us", "lower"),
    ("data.corpus_build_s", "s", "lower"),
    ("data.model_fit_s", "s", "lower"),
    ("distributed.spawn_s", "s", "lower"),
    # diagnosis of the run itself; never gates
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.gen_late_p99_ms", "ms", "lower"),
    ("bench.reference_s", "s", "lower"),
    ("bench.rounds", "count", "higher"),
    ("host.calib_ms_q1", "ms", "lower"),
    ("host.calib_ms_q3", "ms", "lower"),
    # end-to-end candidates the noise study demoted (see README)
    ("cpu_ms_per_op", "ms", "lower"),
    ("lat_first_p50_ms", "ms", "lower"),
    ("lat_next_p50_ms", "ms", "lower"),
    ("lat_next_p95_ms", "ms", "lower"),
    ("fail_share", "ratio", "lower"),
    # the closed-unit medians as the clock read them, before calibration
    ("throughput_raw_ops_s", "1/s", "higher"),
    ("cpu_raw_ms_per_op", "ms", "lower"),
)
