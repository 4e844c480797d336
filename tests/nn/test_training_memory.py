"""Peak memory of one IRN training step, on a catalogue-sized vocabulary and on the encoder.

IRN's loss is a softmax over the whole vocabulary at every position, so on
a large catalogue a training step's memory is ``(batch, length, vocab)``
float64 arrays: the tied projection's logits, the loss's temporaries and
their gradients.  That bound is counted in those arrays.  The step reads
5.02 of them: the fused cross entropy keeps one buffer of the kept rows'
``exp`` from forward to backward.  The composite ``nll_loss(log_softmax(·))``,
which kept the shifted logits, their ``exp`` and the log-probabilities,
read 8.9, and the engine that scattered basic-index gradients with
``np.add.at`` and copied every first gradient 10.9.

On a small vocabulary the Transformer layers hold the memory instead, and
that bound is counted in ``(batch, length, d_model)`` arrays.  With GELU,
layer norm, softmax, the linear maps and dropout one graph node each, a
``(64, 18)`` step at ``d_model = 32`` over two layers reads 166.7 of them.
Linear maps that kept both the product and the biased output, and dropout
that kept a float64 mask, read 191.0; the elementwise composites of GELU,
layer norm and softmax, which kept every intermediate of the chain, 329.1.
"""

import tracemalloc

import numpy as np

from repro.core.irn import IRN, _IRNModule
from repro.data.batching import SequenceBatch
from repro.nn.optim import Adam, clip_grad_norm

#: one more temporary over the predicting positions (≈ 0.93 of a
#: ``(batch, length, vocab)`` array) or over the kept rows (≈ 0.86) crosses it
MAX_STEP_PEAK_ARRAYS = 5.4
#: two more ``(batch, length, d_model)`` temporaries per layer (4 arrays) cross it
MAX_ENCODER_STEP_PEAK_ARRAYS = 170


def _step_peak(batch_size, length, vocab, **sizes) -> int:
    """Peak traced bytes of one IRN training step (after a first, which creates Adam's moments)."""
    rng = np.random.default_rng(0)
    irn = IRN(**sizes)
    irn.module = _IRNModule(
        vocab_size=vocab,
        num_users=batch_size,
        max_length=irn.max_sequence_length + 1,
        embedding_dim=irn.embedding_dim,
        user_dim=irn.user_dim,
        num_heads=irn.num_heads,
        num_layers=irn.num_layers,
        dropout=irn.dropout,
        rng=rng,
    )
    optimizer = Adam(irn.module.parameters(), lr=1e-3)
    items = rng.integers(1, vocab, size=(batch_size, length))
    items[:3, :4] = 0  # pre-padded rows
    batch = SequenceBatch(items=items, users=np.arange(batch_size), lengths=(items > 0).sum(axis=1))
    irn.module.train()

    def step():
        optimizer.zero_grad()
        irn._loss(batch, rng).backward()
        clip_grad_norm(irn.module.parameters(), irn.grad_clip)
        optimizer.step()

    step()  # Adam's moments exist from here on, as in a fit
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_one_training_step_peaks_under_the_array_bound():
    batch, length, vocab = 8, 15, 20_001
    peak = _step_peak(
        batch,
        length,
        vocab,
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=1,
        max_sequence_length=16,
    )
    arrays = peak / (batch * length * vocab * 8)
    assert arrays <= MAX_STEP_PEAK_ARRAYS, f"one step peaked at {arrays:.2f} (B, L, V) arrays"


def test_one_encoder_bound_step_peaks_under_the_array_bound():
    batch, length, d_model = 64, 18, 32
    peak = _step_peak(
        batch,
        length,
        217,
        embedding_dim=d_model,
        user_dim=8,
        num_heads=2,
        num_layers=2,
        max_sequence_length=length,
    )
    arrays = peak / (batch * length * d_model * 8)
    assert arrays <= MAX_ENCODER_STEP_PEAK_ARRAYS, f"one step peaked at {arrays:.1f} (B, L, d) arrays"
