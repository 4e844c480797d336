"""Peak memory of one IRN training step on a catalogue-sized vocabulary.

IRN's loss is a softmax over the whole vocabulary at every position, so on
a large catalogue a training step's memory is ``(batch, length, vocab)``
float64 arrays: the tied projection's logits, the loss's temporaries and
their gradients.  The bound is counted in those arrays.  The step reads
5.05 of them: the fused cross entropy keeps one buffer of the kept rows'
``exp`` from forward to backward.  The composite ``nll_loss(log_softmax(·))``,
which kept the shifted logits, their ``exp`` and the log-probabilities,
read 8.9, and the engine that scattered basic-index gradients with
``np.add.at`` and copied every first gradient 10.9.
"""

import tracemalloc

import numpy as np

from repro.core.irn import IRN, _IRNModule
from repro.data.batching import SequenceBatch
from repro.nn.optim import Adam, clip_grad_norm

BATCH, LENGTH, VOCAB = 8, 15, 20_001
#: one more temporary over the predicting positions (≈ 0.93 of a
#: ``(batch, length, vocab)`` array) or over the kept rows (≈ 0.86) crosses it
MAX_STEP_PEAK_ARRAYS = 5.4


def test_one_training_step_peaks_under_the_array_bound():
    rng = np.random.default_rng(0)
    irn = IRN(embedding_dim=16, user_dim=4, num_heads=2, num_layers=1, max_sequence_length=16)
    irn.module = _IRNModule(
        vocab_size=VOCAB,
        num_users=BATCH,
        max_length=irn.max_sequence_length + 1,
        embedding_dim=irn.embedding_dim,
        user_dim=irn.user_dim,
        num_heads=irn.num_heads,
        num_layers=irn.num_layers,
        dropout=irn.dropout,
        rng=rng,
    )
    optimizer = Adam(irn.module.parameters(), lr=1e-3)
    items = rng.integers(1, VOCAB, size=(BATCH, LENGTH))
    items[:3, :4] = 0  # pre-padded rows
    batch = SequenceBatch(items=items, users=np.arange(BATCH), lengths=(items > 0).sum(axis=1))
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
    arrays = peak / (BATCH * LENGTH * VOCAB * 8)
    assert arrays <= MAX_STEP_PEAK_ARRAYS, f"one step peaked at {arrays:.2f} (B, L, V) arrays"
