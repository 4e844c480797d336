"""The resident lane as it recorded before it was one pass, kept as the
oracle of ``test_resident_one_pass.py``: each counter family in its own
registry update — the admission, the loop's group, each histogram, the
tenant's latency — six or seven registry-lock acquisitions per answer.

:func:`answer_resident_per_field` is bound onto a loop in place of
``ServingLoop._answer_resident``; what it counts must be what the one-pass
lane counts, to the value.
"""

from __future__ import annotations

import time

from repro.core.beam import MISS
from repro.serve import loop as loop_module
from repro.serve.api import Response
from repro.utils.exceptions import ServingError


def answer_resident_per_field(loop, request) -> bool:
    with loop._state_lock:
        if loop._closed:
            raise ServingError("the serving loop is closed; it no longer accepts requests")
        serving = loop._serving
        adapter = serving.adapter
        binding = None
        if serving.tenants is not None:
            binding = serving.tenants.resolve(request)
            adapter = binding.adapter
        key = request.routing_key()
        loop._begin_trace(request, key)
        started = time.perf_counter()
        queued = loop._pending.get(key, 0)
        if not queued:
            generation = adapter.serving_generation
            answer = adapter.serve_resident(request)
        if queued or answer is MISS:
            loop._pending[key] = queued + 1
            request.on_release = lambda: loop._forget_pending(key)
            return False
        if generation is None and serving.adapter is not None:
            generation = serving.generation
        request.enqueued_at = started
        Response.stamp(
            request,
            drain_started_at=started,
            served_generation=generation,
            batch_tag=next(loop_module._BATCH_TAGS),
        )
        latency = request.completed_at - started
        loop.admission.on_admitted()
        loop._metrics.record(
            add={"resident": 1, "latency.served": 1, "latency.latency_sum_s": latency},
            max_={"latency.latency_max_s": latency},
        )
        loop._latency_hist.observe(1000.0 * latency)
        loop._wait_hist.observe(0.0)
        if binding is not None:
            binding.observe(
                served=1,
                failed=0,
                wait_sum=0.0,
                wait_max=0.0,
                latency_sum=latency,
                latency_max=latency,
            )
    request.resolve(answer)
    return True
