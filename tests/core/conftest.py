"""The float64 program the exactness tests hold IRN's scorers to.

IRN plans on a float32 program.  The checks that pin the *algorithms* —
batching, incremental and shared-history decoding, the gathered projection,
the compiled program against the graph forward — hold them to float64
tolerances (``1e-8`` down to ``1e-10``), which only a float64 program can
meet, and the float32 contract holds the float32 program to a float64 one of
the same weights.  Both reach float64 through :func:`float64_program_of`:
each model keeps its float64 program next to its float32 one, recompiled on
the same weight-change rule.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.irn import IRN
from repro.nn import inference


def float64_program_of(irn: IRN) -> inference.Program:
    """A float64 program of ``irn``'s current weights, compiled once per weight version."""
    compiled = irn.__dict__.get("_float64_program")
    if compiled is None or not compiled.current(irn.module):
        compiled = irn._float64_program = inference.compile(irn.module, np.float64)
    return compiled


@contextlib.contextmanager
def on_float64(irn: IRN):
    """``irn`` scores on :func:`float64_program_of` inside the block."""
    irn._program = lambda: float64_program_of(irn)
    try:
        yield
    finally:
        del irn._program


@pytest.fixture(scope="class")
def float64_program():
    """Run every IRN scorer on a float64 program for the requesting class.

    Class scope, so hypothesis tests may use it; a class uses it whole, since
    it stays active until the class ends.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IRN, "_program", float64_program_of)
        yield
