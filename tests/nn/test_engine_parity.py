"""The engine's gradient bookkeeping, loss and fused nodes against what they replaced, bit for bit.

A basic index scatters its gradient with ``full[index] += grad``, a
non-leaf tensor adopts its first gradient instead of copying it, and
``F.cross_entropy``, ``F.tied_cross_entropy``, ``F.gelu``, ``F.softmax``,
``F.layer_norm``, ``F.linear`` and ``F.dropout`` are one graph node each;
all must train exactly what ``np.add.at``, the defensive copy, the
composite ``nll_loss(log_softmax(·))``, the tied projection into it and the
chains of nodes trained (``tests/nn/reference_engine.py``), and no two
parameters may end up sharing a gradient buffer that ``clip_grad_norm``
would scale twice.

The engine frees a non-leaf's gradient as its node runs backward, so the
gradient an op hands its input is read through a
:class:`~tests.nn.reference_engine.GradientProbe` between the two, and every
comparison asserts that both sides are arrays: two released gradients would
both read ``None``, and ``None`` has the same bits as ``None``.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.data.batching import iterate_batches
from repro.data.padding import PAD_INDEX
from repro.nn import functional as F
from repro.nn.attention import NEG_INF
from repro.nn.layers import Dropout, LayerNorm, Linear, Parameter
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor, _is_basic_index, no_grad

from tests.models.test_neural import FACTORIES
from tests.nn import reference_engine
from tests.nn.reference_engine import GradientProbe, use_reference_engine

SHAPE = (4, 5, 6)

#: ``(index, basic)`` — every basic form, and the fancy / boolean ones that
#: must keep the scatter
INDICES = [
    (2, True),
    (-1, True),
    (np.int64(-3), True),
    (slice(1, None), True),
    (slice(None, None, -1), True),
    (slice(4, 0, -2), True),
    ((slice(None), slice(None, -1), slice(None)), True),
    ((slice(None), -1), True),
    ((None, 1), True),
    ((Ellipsis, 3), True),
    ((1, Ellipsis, slice(None, None, -3)), True),
    ((slice(None), None, 2, slice(1, 5, 2)), True),
    (np.array([0, 2, 2, 3, 0]), False),
    ((np.array([1, 1, 3]), slice(None), np.array([0, 0, 5])), False),
    ([3, 3, 1], False),
    (np.arange(4) % 2 == 0, False),
    ((slice(None), np.array([True, False, True, True, False])), False),
    (True, False),
]


def _bits(array: np.ndarray) -> bytes:
    """Every bit of ``array`` — ``np.array_equal`` would call -0.0 and 0.0 equal."""
    return np.ascontiguousarray(array).tobytes()


def _assert_same_bits(value, reference) -> None:
    """``value`` and ``reference`` are both arrays, equal in every bit."""
    assert isinstance(value, np.ndarray), value
    assert isinstance(reference, np.ndarray), reference
    assert _bits(value) == _bits(reference)


class TestGetitemGradient:
    @pytest.mark.parametrize("index, basic", INDICES, ids=lambda value: repr(value)[:40])
    def test_gradient_equals_add_at_bit_for_bit(self, index, basic):
        rng = np.random.default_rng(0)
        leaf = Tensor(rng.normal(size=SHAPE), requires_grad=True)
        picked = leaf[index]
        grad = rng.normal(size=picked.shape)
        grad.reshape(-1)[::3] = -0.0  # 0.0 + -0.0 is +0.0: a plain assignment would differ
        picked.backward(grad)
        expected = np.zeros(SHAPE)
        np.add.at(expected, index, grad)
        assert _is_basic_index(index) is basic
        assert _bits(leaf.grad) == _bits(expected)


class TestGradientBuffers:
    def test_a_strided_first_gradient_is_copied_contiguous(self):
        probe = GradientProbe()
        hidden = probe(Tensor(np.ones(SHAPE), requires_grad=True) * 2.0)
        hidden.transpose().sum().backward()  # hands ``hidden`` a transposed view
        assert isinstance(probe.grad, np.ndarray)
        assert probe.grad.flags.c_contiguous

    def test_parameters_sharing_an_operand_get_their_own_buffers(self):
        a, b = Parameter(np.ones(3)), Parameter(np.ones(3))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        norm = clip_grad_norm([a, b], 1.0)
        assert norm == pytest.approx(np.sqrt(6.0))
        # each buffer scaled once, so the clipped global norm is max_norm
        assert np.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2)) == pytest.approx(1.0)


#: ``(logits shape, index into the leaf)``: the index makes the strided
#: ``logits[:, :-1, :]`` view IRN passes
LAYOUTS = {
    "2-D": ((7, 9), ()),
    "3-D": ((3, 5, 9), ()),
    "strided": ((3, 6, 9), (slice(None), slice(None, -1), slice(None))),
}


def _cross_entropy(loss, data, index, targets, upstream=None, **options):
    """``(loss, gradient of the logits)`` of one ``loss`` call and its backward.

    The gradient is the one the loss hands its input, read by a probe: the
    scatter back into the leaf would turn a -0.0 into +0.0.
    """
    probe = GradientProbe()
    logits = probe(Tensor(data, requires_grad=True)[index])
    out = loss(logits, targets, **options)
    out.backward(upstream)
    return out.data, probe.grad


def _upstreams(reduction: str, positions: int, rng) -> list:
    """Backward seeds: the default one, and ones with negatives and both signed zeros."""
    if reduction != "none":
        return [None, np.array(-2.5)]
    signed = rng.normal(size=positions)
    signed[::4] = 0.0
    signed[1::4] = -0.0
    return [np.ones(positions), signed]


class TestFusedCrossEntropy:
    """``F.cross_entropy`` against the composite it replaced, loss and input gradient."""

    def _assert_equal_to_the_composite(self, data, index, targets, **options):
        rng = np.random.default_rng(1)
        for upstream in _upstreams(options["reduction"], targets.size, rng):
            loss, grad = _cross_entropy(F.cross_entropy, data, index, targets, upstream, **options)
            expected_loss, expected_grad = _cross_entropy(
                reference_engine.cross_entropy, data, index, targets, upstream, **options
            )
            _assert_same_bits(loss, expected_loss)
            _assert_same_bits(grad, expected_grad)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    @pytest.mark.parametrize("ignore_index", [None, 0])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_loss_and_gradient_equal_the_composite(self, layout, ignore_index, reduction):
        shape, index = LAYOUTS[layout]
        rng = np.random.default_rng(0)
        data = rng.normal(scale=3.0, size=shape)
        targets = rng.integers(0, shape[-1], size=data[index].shape[:-1])
        targets.reshape(-1)[::3] = 0
        self._assert_equal_to_the_composite(
            data, index, targets, ignore_index=ignore_index, reduction=reduction
        )

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_a_batch_with_every_target_ignored(self, reduction):
        shape, index = LAYOUTS["strided"]
        data = np.random.default_rng(2).normal(size=shape)
        targets = np.zeros(data[index].shape[:-1], dtype=np.int64)
        self._assert_equal_to_the_composite(
            data, index, targets, ignore_index=0, reduction=reduction
        )
        loss, grad = _cross_entropy(F.cross_entropy, data, index, targets, ignore_index=0)
        _assert_same_bits(loss, np.array(0.0))
        _assert_same_bits(grad, np.zeros(data[index].shape))

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_logits_near_1000(self, reduction):
        # half the rows carry one logit 800 above the rest, so every other
        # probability underflows to 0 and a negative seed writes -0.0 terms
        shape, index = LAYOUTS["3-D"]
        rng = np.random.default_rng(3)
        data = rng.normal(size=shape) + 1000.0
        data[1:, :, 4] += 800.0
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        targets[0, ::2] = 0
        self._assert_equal_to_the_composite(
            data, index, targets, ignore_index=0, reduction=reduction
        )

    def test_ignored_positions_read_positive_zero(self):
        shape, index = LAYOUTS["strided"]
        data = np.random.default_rng(4).normal(size=shape)
        targets = np.tile([0, 3, 0, 5, 1], (shape[0], 1))
        losses = F.cross_entropy(Tensor(data)[index], targets, ignore_index=0, reduction="none")
        ignored = losses.data[targets.reshape(-1) == 0]
        assert ignored.size and not np.signbit(ignored).any()

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_the_no_grad_forward_equals_the_composite(self, reduction):
        shape, index = LAYOUTS["strided"]
        rng = np.random.default_rng(5)
        data = rng.normal(size=shape)
        targets = rng.integers(0, shape[-1], size=data[index].shape[:-1])
        targets[:, 1] = 0
        leaf = Tensor(data, requires_grad=True)
        with no_grad():
            loss = F.cross_entropy(leaf[index], targets, ignore_index=0, reduction=reduction)
        expected = reference_engine.cross_entropy(
            leaf[index], targets, ignore_index=0, reduction=reduction
        )
        assert not loss.requires_grad and loss._backward is None
        assert _bits(loss.data) == _bits(expected.data)

    def test_the_loss_is_one_graph_node_over_the_logits(self):
        logits = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        loss = F.cross_entropy(logits, np.array([[1, 0, 2], [3, 3, 0]]), ignore_index=0)
        assert loss._parents == (logits,)


#: ``(batch, length, d, vocab)`` of the tied loss's cases
TIED = (9, 7, 4, 13)


def _tied_targets(rng, predicted: int):
    """Targets with pre-padded rows, a row of nothing but padding and a padded
    position inside a row."""
    batch, _, _, vocab = TIED
    targets = rng.integers(1, vocab, size=(batch, predicted))
    targets[:4, :3] = PAD_INDEX  # pre-padded rows
    targets[5] = PAD_INDEX  # a row whose every target is padding
    targets[7, 4] = PAD_INDEX
    return targets


def _tied(loss, targets, upstream=None, gathered=False):
    """``(loss, gradient handed to hidden, gradient handed to the table, table parameter's)``.

    The table is a parameter, or with ``gathered`` a non-leaf gather of its
    rows, as BERT4Rec drops its ``[MASK]`` row; probes read what the loss
    hands each input.
    """
    batch, length, dim, vocab = TIED
    rng = np.random.default_rng(7)
    hidden_probe, table_probe = GradientProbe(), GradientProbe()
    hidden = hidden_probe(Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True))
    weight = Parameter(rng.normal(size=(vocab + 1, dim)))
    table = weight[np.arange(vocab)] if gathered else weight
    out = loss(hidden, table_probe(table), targets)
    out.backward(upstream)
    return out.data, hidden_probe.grad, table_probe.grad, weight.grad


def _chunk_rows(monkeypatch, rows: int) -> None:
    """Patch the node's budget down to ``rows`` batch rows of logits a chunk."""
    _, length, _, vocab = TIED
    monkeypatch.setattr(F, "_TIED_CHUNK_BYTES", rows * length * vocab * 8)


class TestFusedTiedCrossEntropy:
    """``F.tied_cross_entropy`` against the chain it replaced: loss, and both inputs' gradients."""

    def _assert_equal_to_the_chain(self, targets, upstreams=(None, np.array(-2.5)), gathered=False):
        for upstream in upstreams:
            got = _tied(F.tied_cross_entropy, targets, upstream, gathered)
            expected = _tied(reference_engine.tied_cross_entropy, targets, upstream, gathered)
            for value, reference in zip(got, expected, strict=True):
                _assert_same_bits(value, reference)

    @pytest.mark.parametrize("predicted", [TIED[1] - 1, TIED[1]], ids=["IRN", "SASRec"])
    @pytest.mark.parametrize("rows", [1, 2, 4, TIED[0]])
    def test_loss_and_gradients_equal_the_chain(self, monkeypatch, rows, predicted):
        _chunk_rows(monkeypatch, rows)
        targets = _tied_targets(np.random.default_rng(0), predicted)
        self._assert_equal_to_the_chain(targets)

    @pytest.mark.parametrize("rows", [1, 2, TIED[0]])
    def test_a_gathered_table(self, monkeypatch, rows):
        _chunk_rows(monkeypatch, rows)
        targets = _tied_targets(np.random.default_rng(1), TIED[1])
        self._assert_equal_to_the_chain(targets, gathered=True)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_a_batch_with_every_target_ignored(self, monkeypatch, rows):
        _chunk_rows(monkeypatch, rows)
        targets = np.zeros((TIED[0], TIED[1] - 1), dtype=np.int64)
        self._assert_equal_to_the_chain(targets)
        loss, hidden_grad, _, _ = _tied(F.tied_cross_entropy, targets)
        _assert_same_bits(loss, np.array(0.0))
        _assert_same_bits(hidden_grad, np.zeros(TIED[:3]))

    @pytest.mark.parametrize("rows", [1, TIED[0]])
    def test_the_no_grad_forward_equals_the_chain(self, monkeypatch, rows):
        _chunk_rows(monkeypatch, rows)
        batch, length, dim, vocab = TIED
        rng = np.random.default_rng(3)
        hidden = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        table = Parameter(rng.normal(size=(vocab, dim)))
        targets = _tied_targets(rng, length - 1)
        with no_grad():
            loss = F.tied_cross_entropy(hidden, table, targets)
            expected = reference_engine.tied_cross_entropy(hidden, table, targets)
        assert not loss.requires_grad and loss._backward is None
        _assert_same_bits(loss.data, expected.data)

    def test_the_loss_is_one_graph_node_that_runs_backward_once(self, monkeypatch):
        _chunk_rows(monkeypatch, 2)
        hidden = Tensor(np.ones(TIED[:3]), requires_grad=True) * 2.0
        table = Parameter(np.ones((TIED[3], TIED[2])))
        loss = F.tied_cross_entropy(hidden, table, _tied_targets(np.random.default_rng(4), 6))
        assert loss._parents == (hidden, table)
        loss.backward()
        with pytest.raises(RuntimeError, match="already run backward"):
            loss.backward()

    def test_it_holds_a_chunk_of_logits_at_a_time(self, monkeypatch):
        # 16 rows of one-row chunks: the whole (batch, length, vocab) logits
        # are 16 chunks, and forward and backward together stay under 4
        batch, length, dim, vocab = 16, 10, 4, 4_000
        monkeypatch.setattr(F, "_TIED_CHUNK_BYTES", length * vocab * 8)
        rng = np.random.default_rng(5)
        hidden = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        table = Parameter(rng.normal(size=(vocab, dim)))
        targets = rng.integers(0, vocab, size=(batch, length - 1))
        tracemalloc.start()
        try:
            F.tied_cross_entropy(hidden, table, targets).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunks = peak / (length * vocab * 8)
        assert chunks <= 4, f"the loss peaked at {chunks:.2f} chunks of logits"

    @pytest.mark.parametrize("name", ["sasrec", "bert4rec", "irn"])
    def test_the_transformer_models_train_through_the_node(self, name, tiny_split):
        model = FACTORIES[name]()
        model.epochs = 1
        model.fit(tiny_split)
        batch = next(iterate_batches(tiny_split.train, 32, scheme=model.padding_scheme, seed=0))
        model.module.train()
        loss = model._loss(model._truncate(batch), np.random.default_rng(0))
        assert loss._backward.__qualname__ == "tied_cross_entropy.<locals>.backward"
        _, table = loss._parents
        weight = model.module.item_embedding.weight
        assert table is weight or table._parents == (weight,)  # BERT4Rec drops its [MASK] row


#: ``(leaf shape, view of the leaf)``: the op's input is the view, so the
#: strided ones hand it a sliced, a transposed and a stepped array
OP_LAYOUTS = {
    "contiguous": ((3, 5, 8), lambda leaf: leaf * 1.0),
    "sliced": ((3, 6, 8), lambda leaf: leaf[:, :-1, :]),
    "transposed": ((5, 3, 8), lambda leaf: leaf.transpose(1, 0, 2)),
    "stepped": ((3, 5, 16), lambda leaf: leaf[:, :, ::2]),
}


def _fused_op(op, layout, residual=False, affine=0, **options):
    """``(output, gradient the op hands its input, *parameter gradients)`` of one call.

    ``affine`` parameters of the input's last-axis size follow the input.
    With ``residual`` the output is ``x + op(x)``, the pre-norm residual:
    the add's backward runs first, so ``x`` already holds a gradient when
    the op's backward adds its contributions to it.  ``x`` is a probe, which
    reads the gradient the engine frees.
    """
    shape, view = layout
    rng = np.random.default_rng(0)
    probe = GradientProbe()
    x = probe(view(Tensor(rng.normal(scale=2.0, size=shape), requires_grad=True)))
    parameters = [Parameter(rng.normal(size=x.shape[-1])) for _ in range(affine)]
    out = op(x, *parameters, **options)
    upstream = rng.normal(size=out.shape)
    upstream.reshape(-1)[::5] = 0.0
    upstream.reshape(-1)[1::5] = -0.0
    (x + out if residual else out).backward(upstream)
    return (out.data, probe.grad, *(parameter.grad for parameter in parameters))


class _FusedOpParity:
    """One fused node against its reference composite: values and every gradient."""

    fused = reference = None
    affine = 0  # parameters after the input

    def _assert_equal_to_the_composite(self, layout, residual=False, **options):
        options["affine"] = self.affine
        got = _fused_op(self.fused, layout, residual, **options)
        expected = _fused_op(self.reference, layout, residual, **options)
        for value, reference in zip(got, expected, strict=True):
            _assert_same_bits(value, reference)

    @pytest.mark.parametrize("layout", list(OP_LAYOUTS))
    def test_forward_and_gradients_equal_the_composite(self, layout):
        self._assert_equal_to_the_composite(OP_LAYOUTS[layout])

    @pytest.mark.parametrize("layout", list(OP_LAYOUTS))
    def test_an_input_that_already_holds_a_gradient(self, layout):
        self._assert_equal_to_the_composite(OP_LAYOUTS[layout], residual=True)

    def test_the_no_grad_forward_equals_the_composite(self):
        shape, view = OP_LAYOUTS["sliced"]
        x = view(Tensor(np.random.default_rng(1).normal(size=shape), requires_grad=True))
        parameters = [Parameter(np.full(x.shape[-1], 1.5)) for _ in range(self.affine)]
        with no_grad():
            out = self.fused(x, *parameters)
        expected = self.reference(x, *parameters)
        assert not out.requires_grad and out._backward is None
        assert _bits(out.data) == _bits(expected.data)

    def test_the_op_is_one_graph_node(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        parameters = [Parameter(np.ones(4)) for _ in range(self.affine)]
        assert self.fused(x, *parameters)._parents == (x, *parameters)


class TestFusedGelu(_FusedOpParity):
    fused, reference = staticmethod(F.gelu), staticmethod(reference_engine.gelu)


class TestFusedSoftmax(_FusedOpParity):
    fused, reference = staticmethod(F.softmax), staticmethod(reference_engine.softmax)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_another_axis(self, axis):
        self._assert_equal_to_the_composite(OP_LAYOUTS["transposed"], axis=axis)

    def test_rows_with_masked_logits(self):
        # attention's additive causal mask: -1e9 logits whose probability underflows to 0
        shape = (3, 8, 8)
        mask = Tensor(np.triu(np.full(shape[1:], NEG_INF), k=1))
        self._assert_equal_to_the_composite((shape, lambda leaf: leaf + mask), residual=True)


class TestFusedLayerNorm(_FusedOpParity):
    fused, reference = staticmethod(F.layer_norm), staticmethod(reference_engine.layer_norm)
    affine = 2  # weight, bias

    def test_a_larger_eps(self):
        self._assert_equal_to_the_composite(OP_LAYOUTS["sliced"], residual=True, eps=0.5)

    def test_the_module_runs_the_fused_node(self):
        norm = LayerNorm(4)
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        assert norm(x)._parents == (x, norm.weight, norm.bias)


#: ``(leaf shape, view of the leaf)``: a vector, a matrix and a transposed matrix
MATRIX_LAYOUTS = {
    "1-D": ((8,), lambda leaf: leaf * 1.0),
    "2-D": ((7, 8), lambda leaf: leaf * 1.0),
    "2-D transposed": ((8, 7), lambda leaf: leaf.transpose()),
}


def _dropout(op):
    """``op`` in training mode at ``p = 0.3``, each call drawing the same keep-mask."""

    def run(x, p=0.3, training=True):
        return op(x, p, training, rng=np.random.default_rng(7))

    return staticmethod(run)


class TestFusedDropout(_FusedOpParity):
    fused, reference = _dropout(F.dropout), _dropout(reference_engine.dropout)

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("layout", list(MATRIX_LAYOUTS))
    def test_vectors_and_matrices(self, layout, residual):
        self._assert_equal_to_the_composite(MATRIX_LAYOUTS[layout], residual=residual)

    @pytest.mark.parametrize("p", [0.1, 0.9])
    def test_another_probability(self, p):
        self._assert_equal_to_the_composite(OP_LAYOUTS["stepped"], residual=True, p=p)

    @pytest.mark.parametrize("options", [{"p": 0.0}, {"training": False}], ids=["p=0", "eval"])
    def test_an_inactive_dropout_is_the_identity(self, options):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        assert self.fused(x, **options) is x
        assert self.reference(x, **options) is x

    def test_the_node_keeps_only_a_bool_mask_and_draws_what_the_composite_drew(self):
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        out = F.dropout(x, 0.5, True, rng=rng)
        reference_engine.dropout(x, 0.5, True, rng=reference_rng)
        kept = [cell.cell_contents for cell in out._backward.__closure__]
        arrays = [value for value in kept if isinstance(value, np.ndarray)]
        assert [array.dtype for array in arrays] == [np.dtype(bool)]
        assert rng.random() == reference_rng.random()

    def test_the_module_runs_the_fused_node(self):
        dropout = Dropout(0.5, rng=0)
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        assert dropout(x)._parents == (x,)


#: a linear's input takes the 3-D layouts of the other fused ops and these
LINEAR_LAYOUTS = {**MATRIX_LAYOUTS, **OP_LAYOUTS}


def _linear(op, layout, bias=True, shared=1, input_grad=True):
    """``(output, gradient the linears hand their input, *weight and bias gradients)``.

    ``shared`` linears read the one input, as attention's query, key and
    value projections read one normed input, and their outputs are summed:
    the input gets one gradient contribution per linear, read by a probe.
    Without ``input_grad`` no node of the input takes a gradient, so none is
    freed, and the tuple holds the probe's output's own ``.grad``, which must
    stay ``None``.
    """
    shape, view = layout
    rng = np.random.default_rng(0)
    leaf = Tensor(rng.normal(scale=2.0, size=shape), requires_grad=input_grad)
    probe = GradientProbe()
    x = probe(view(leaf))
    weights = [Parameter(rng.normal(size=(5, x.shape[-1]))) for _ in range(shared)]
    biases = [Parameter(rng.normal(size=5)) if bias else None for _ in range(shared)]
    out = op(x, weights[0], biases[0])
    for weight, bias_ in zip(weights[1:], biases[1:]):
        out = out + op(x, weight, bias_)
    upstream = rng.normal(size=out.shape)
    upstream.reshape(-1)[::5] = 0.0
    upstream.reshape(-1)[1::5] = -0.0
    out.backward(upstream)
    parameters = weights + [bias_ for bias_ in biases if bias_ is not None]
    input_gradient = probe.grad if input_grad else x.grad
    return (out.data, input_gradient, *(parameter.grad for parameter in parameters))


class TestFusedLinear:
    """``F.linear`` against ``x.matmul(weight.transpose()) + bias``: output and every gradient."""

    def _assert_equal_to_the_composite(self, layout, input_grad=True, **options):
        got = _linear(F.linear, layout, input_grad=input_grad, **options)
        expected = _linear(reference_engine.linear, layout, input_grad=input_grad, **options)
        for position, (value, reference) in enumerate(zip(got, expected, strict=True)):
            if position == 1 and not input_grad:  # an input that takes no gradient gets none
                assert value is None and reference is None
            else:
                _assert_same_bits(value, reference)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no bias"])
    @pytest.mark.parametrize("layout", list(LINEAR_LAYOUTS))
    def test_forward_and_gradients_equal_the_composite(self, layout, bias):
        self._assert_equal_to_the_composite(LINEAR_LAYOUTS[layout], bias=bias)

    @pytest.mark.parametrize("layout", list(LINEAR_LAYOUTS))
    def test_an_input_that_already_holds_a_gradient(self, layout):
        self._assert_equal_to_the_composite(LINEAR_LAYOUTS[layout], shared=3)

    def test_an_input_without_a_gradient(self):
        self._assert_equal_to_the_composite(OP_LAYOUTS["sliced"], input_grad=False)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no bias"])
    def test_the_no_grad_forward_equals_the_composite(self, bias):
        shape, view = OP_LAYOUTS["transposed"]
        rng = np.random.default_rng(1)
        x = view(Tensor(rng.normal(size=shape), requires_grad=True))
        weight = Parameter(rng.normal(size=(5, x.shape[-1])))
        bias_ = Parameter(rng.normal(size=5)) if bias else None
        with no_grad():
            out = F.linear(x, weight, bias_)
            expected = reference_engine.linear(x, weight, bias_)
        assert not out.requires_grad and out._backward is None
        assert _bits(out.data) == _bits(expected.data)
        assert _bits(out.data) == _bits(reference_engine.linear(x, weight, bias_).data)

    def test_the_op_is_one_graph_node(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        weight, bias = Parameter(np.ones((5, 4))), Parameter(np.ones(5))
        assert F.linear(x, weight, bias)._parents == (x, weight, bias)
        assert F.linear(x, weight)._parents == (x, weight)

    def test_the_module_runs_the_fused_node(self):
        linear = Linear(4, 5, rng=0)
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True) * 2.0
        assert linear(x)._parents == (x, linear.weight, linear.bias)


def _history(model) -> list[tuple]:
    """``training_history`` without its wall-clock ``seconds``."""
    return [
        (record["epoch"], record["train_loss"], record["validation_loss"], record["lr"])
        for record in model.training_history
    ]


@pytest.mark.parametrize("name", list(FACTORIES))
class TestTrainingParity:
    # the reference trains through the copying bookkeeping and the composite loss
    def test_weights_and_losses_equal_the_reference_engine(self, name, tiny_split, monkeypatch):
        fitted = FACTORIES[name]().fit(tiny_split)
        use_reference_engine(monkeypatch)
        reference = FACTORIES[name]().fit(tiny_split)
        weights, expected = fitted.module.state_dict(), reference.module.state_dict()
        assert weights.keys() == expected.keys()
        for key in expected:
            assert np.array_equal(weights[key], expected[key]), key
        assert np.array_equal(_history(fitted), _history(reference), equal_nan=True)

    def test_no_two_parameters_share_a_gradient_buffer(self, name, tiny_split):
        model = FACTORIES[name]()
        model.epochs = 1
        model.fit(tiny_split)
        batch = next(iterate_batches(tiny_split.train, 32, scheme=model.padding_scheme, seed=0))
        model.module.train()
        model._loss(model._truncate(batch), np.random.default_rng(0)).backward()
        grads = [p.grad for p in model.module.parameters() if p.grad is not None]
        assert len(grads) > 1
        for first, second in itertools.combinations(grads, 2):
            assert not np.shares_memory(first, second)
