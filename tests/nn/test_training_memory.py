"""Peak memory of one IRN training step, on a catalogue-sized vocabulary and on the encoder.

IRN's loss is a softmax over the whole vocabulary at every position, so on
a large catalogue a training step's memory is counted in ``(batch, length,
vocab)`` float64 arrays: the tied projection's logits, the loss's
temporaries and their gradients.  The step reads 0.67 of them: the loss is
one node, ``F.tied_cross_entropy``, that projects one batch row of this
catalogue at a time, forward and again backward, so it never holds more
than a chunk's logits and its kept rows.  The chain it replaced — the
projection ``hidden.matmul(table.transpose())``, the slice of the
predicting positions and the fused cross entropy — read 3.24, with
backward freeing the graph as it runs; the engine that kept the whole
graph, and every intermediate gradient, until the step dropped it 5.01;
the composite ``nll_loss(log_softmax(·))``, which kept the shifted logits,
their ``exp`` and the log-probabilities, 8.9; and the engine that
scattered basic-index gradients with ``np.add.at`` and copied every first
gradient 10.9.

On a small vocabulary the Transformer layers hold the memory instead, and
that bound is counted in ``(batch, length, d_model)`` arrays.  A ``(64,
18)`` step at ``d_model = 32`` over two layers reads 92.6 of them (its
217-item loss projects the whole batch in one chunk); through the chain it
read 103.3, and with the whole graph kept through backward 166.7.  Linear
maps that kept both the product and the biased output, and dropout that
kept a float64 mask, read 191.0; the elementwise composites of GELU, layer
norm and softmax, which kept every intermediate of the chain, 329.1.

A fit holds one step's ``loss`` while the next step's forward runs.  Two
steps run that way are held to the one-step bounds: the held loss keeps
no graph.  When it kept the whole graph, two steps read 8.97 and 329.3
arrays.  The bounds were 5.4 and 170 for the engine that kept the graph,
and 3.5 and 106 for the chain; they are 1.0 and 106 now, by the same
margin rule (below).
"""

import tracemalloc

import numpy as np

from repro.core.irn import IRN, _IRNModule
from repro.data.batching import SequenceBatch
from repro.nn.optim import Adam, clip_grad_norm

#: one more temporary over the predicting positions (≈ 0.93 of a
#: ``(batch, length, vocab)`` array) or over the kept rows (≈ 0.86) crosses
#: it, and so do three more one-row chunks of logits held at once (0.125 each)
MAX_STEP_PEAK_ARRAYS = 1.0
#: two more ``(batch, length, d_model)`` temporaries per layer (4 arrays) cross it
MAX_ENCODER_STEP_PEAK_ARRAYS = 106


def _step_peak(batch_size, length, vocab, steps=1, **sizes) -> int:
    """Peak traced bytes of ``steps`` IRN training steps, after a first that creates Adam's moments.

    The steps run the way ``fit`` runs them: each step's ``loss`` is held
    until the next step's forward has made its own.
    """
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
        loss = irn._loss(batch, rng)
        loss.backward()
        clip_grad_norm(irn.module.parameters(), irn.grad_clip)
        optimizer.step()
        return loss

    step()  # Adam's moments exist from here on, as in a fit
    tracemalloc.start()
    try:
        loss = None
        for _ in range(steps):
            loss = step()  # the last step's loss is held until this returns
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


#: the vocabulary-bound step: a catalogue of 20 000 items, one small layer
CATALOGUE_STEP = dict(
    batch_size=8,
    length=15,
    vocab=20_001,
    embedding_dim=16,
    user_dim=4,
    num_heads=2,
    num_layers=1,
    max_sequence_length=16,
)
#: the encoder-bound step: a small vocabulary, two layers at ``d_model = 32``
ENCODER_STEP = dict(
    batch_size=64,
    length=18,
    vocab=217,
    embedding_dim=32,
    user_dim=8,
    num_heads=2,
    num_layers=2,
    max_sequence_length=18,
)


def _peak_arrays(sizes: dict, width: int, steps: int) -> float:
    """Peak of ``steps`` steps of ``sizes``, in ``(batch, length, width)`` float64 arrays."""
    return _step_peak(steps=steps, **sizes) / (sizes["batch_size"] * sizes["length"] * width * 8)


def test_one_training_step_peaks_under_the_array_bound():
    arrays = _peak_arrays(CATALOGUE_STEP, CATALOGUE_STEP["vocab"], steps=1)
    assert arrays <= MAX_STEP_PEAK_ARRAYS, f"one step peaked at {arrays:.2f} (B, L, V) arrays"


def test_a_held_loss_keeps_no_graph_into_the_next_step():
    arrays = _peak_arrays(CATALOGUE_STEP, CATALOGUE_STEP["vocab"], steps=2)
    assert arrays <= MAX_STEP_PEAK_ARRAYS, (
        f"two steps, the first's loss held through the second, peaked at {arrays:.2f} "
        "(B, L, V) arrays"
    )


def test_one_encoder_bound_step_peaks_under_the_array_bound():
    arrays = _peak_arrays(ENCODER_STEP, ENCODER_STEP["embedding_dim"], steps=1)
    assert arrays <= MAX_ENCODER_STEP_PEAK_ARRAYS, f"one step peaked at {arrays:.1f} (B, L, d) arrays"


def test_a_held_loss_keeps_no_encoder_graph_into_the_next_step():
    arrays = _peak_arrays(ENCODER_STEP, ENCODER_STEP["embedding_dim"], steps=2)
    assert arrays <= MAX_ENCODER_STEP_PEAK_ARRAYS, (
        f"two steps, the first's loss held through the second, peaked at {arrays:.1f} "
        "(B, L, d) arrays"
    )
