"""Exactness of the two savings in IRN's compiled inference forward.

* **One-query final layer** — the inference program computes only the
  column(s) its caller gathers (``queries=``).  Oracle: the *graph* forward
  (grad enabled, full ``(B, L, V)`` logits) gathered at the same columns.
* **Beam-shared history** — an objective session on a stack where prefix
  reuse across depths is not exact encodes each live root's history once per
  depth.  Property: whatever ``select`` does to the rows, every advance
  scores like :meth:`IRN.score_with_objective_batch` on the session's rows,
  in all three regimes (exact reuse, shared within a depth, per-row window),
  over the full vocabulary and in shortlist space (each root's own padded
  candidate row, followed through every gather).

Both are held to float64 oracles on a float64 program (the
``float64_program`` fixture).  The float32 program IRN plans on is held to
the same float64 uncached scorer, of the same weights, at the float32 bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.evaluation.protocol import sample_objectives
from repro.utils.exceptions import ConfigurationError
from tests.core.conftest import on_float64
from tests.core.reference_beam import ReferenceBeamPlanner

RTOL, ATOL = 1e-7, 1e-8  # the documented batching tolerance
FLOAT32_TOL = 5e-4
LAYERS = (1, 2, 3)
MASKS = (MaskType.CAUSAL, MaskType.OBJECTIVE, MaskType.PERSONALIZED)
WINDOW = 12  # small enough that six advances overflow the longer histories


@pytest.fixture(scope="module")
def models(tiny_split):
    """One small IRN per (layers, mask), trained lazily, non-zero ``w_h``."""
    cache: dict = {}

    def get(num_layers: int, mask_type: MaskType) -> IRN:
        key = (num_layers, mask_type)
        if key not in cache:
            cache[key] = IRN(
                embedding_dim=8,
                user_dim=4,
                num_heads=2,
                num_layers=num_layers,
                mask_type=mask_type,
                history_weight=0.3,
                epochs=1,
                batch_size=64,
                max_sequence_length=WINDOW,
                seed=0,
            ).fit(tiny_split)
        return cache[key]

    return get


def assert_scores_match(scores, reference, float32: bool) -> None:
    finite = np.isfinite(reference)
    assert np.array_equal(finite, np.isfinite(scores))
    if float32:
        np.testing.assert_allclose(scores[finite], reference[finite], rtol=0, atol=FLOAT32_TOL)
    else:
        np.testing.assert_allclose(scores[finite], reference[finite], rtol=RTOL, atol=ATOL)


@st.composite
def scenarios(draw):
    """Ragged roots plus 1-6 advances of arbitrary row gathers."""
    items = st.integers(min_value=1, max_value=30)
    roots = draw(
        st.lists(
            st.tuples(
                st.lists(items, min_size=0, max_size=8),  # history (0 and 1 included)
                items,  # objective
                st.one_of(st.none(), st.integers(min_value=0, max_value=60)),  # user
            ),
            min_size=1,
            max_size=4,
        )
    )
    rows = len(roots)
    advances = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        # parents dropped, duplicated and reordered; None keeps the rows as they are
        parents = draw(
            st.one_of(
                st.none(),
                st.lists(st.integers(min_value=0, max_value=rows - 1), min_size=1, max_size=6),
            )
        )
        rows = rows if parents is None else len(parents)
        advances.append((parents, draw(st.lists(items, min_size=rows, max_size=rows))))
    return roots, advances


@st.composite
def shortlisted_scenarios(draw):
    """A scenario plus one shortlist per root, of unequal sizes, in the
    planner's ``(roots, K)`` table form: ascending, a shorter one padded by
    repeating its last item."""
    roots, advances = draw(scenarios())
    item = st.integers(min_value=1, max_value=30)
    shortlists = [
        sorted(draw(st.lists(item, min_size=1, max_size=8, unique=True))) for _ in roots
    ]
    width = max(len(shortlist) for shortlist in shortlists)
    table = np.asarray([s + [s[-1]] * (width - len(s)) for s in shortlists], dtype=np.int64)
    return (roots, advances), table


def check_every_advance(irn: IRN, scenario, float32: bool, table=None) -> None:
    """Every advance of ``scenario`` scores like the float64 uncached scorer,
    within the float32 bound when ``float32``, and encodes the token-work its
    regime accounts for.  With a ``(roots, K)`` ``table`` the session plans
    in shortlist space, and every row scores at its root's table row."""
    roots, advances = scenario
    sequences = [history for history, _, _ in roots]
    objectives = [objective for _, objective, _ in roots]
    users = [user for _, _, user in roots]

    def reference(session) -> np.ndarray:
        with on_float64(irn):
            return irn.score_with_objective_batch(
                session.rows,
                session.objectives,
                list(session.users),
                candidate_items=None if table is None else table[session.roots],
            )

    scores, session = irn.begin_decoding_session(
        sequences, objectives, users, candidate_items=table
    )
    assert_scores_match(scores, reference(session), float32)
    reuse_is_exact = irn.num_layers == 1 or irn.mask_type == MaskType.CAUSAL
    assert session.incremental == reuse_is_exact
    for parents, new_items in advances:
        fallback_before = irn.decode_stats.tokens_fallback
        scores = irn.advance_decoding_session(session, new_items, parents)
        encoded = irn.decode_stats.tokens_fallback - fallback_before
        # session.rows are the grown sequences: [root history ; appended]
        assert [row[-session.steps :] for row in session.rows] == [
            row[session.root_lengths[root] :]
            for row, root in zip(session.rows, session.roots)
        ]
        assert_scores_match(scores, reference(session), float32)
        if session.incremental:
            assert encoded == 0
            continue
        window = int(session.lengths.max()) + 1
        if window > WINDOW or reuse_is_exact:
            # overflow (or a degraded session): the per-row sliding window
            assert encoded == session.batch_size * min(window, WINDOW)
        else:
            # shared within the depth: G * (history + objective) + R * (appended + objective)
            live = sorted(set(session.roots.tolist()))
            history = max(int(session.root_lengths[live].max()), 1)
            assert encoded == len(live) * (history + 1) + session.batch_size * (
                session.steps + 1
            )


def check_overflow_mid_session(irn: IRN, float32: bool) -> None:
    """Shared, then per-row window (overflow), then shared again (the
    overflowing row pruned): every advance scores like the float64 uncached
    scorer and encodes its regime's token-work."""
    long, short = list(range(1, WINDOW - 2)), [3, 4]  # 9 + 2 appended + objective fills it
    _, session = irn.begin_decoding_session([long, short], [7, 8], [0, 1])
    regimes = []
    for parents, new_items in [
        (None, [11, 12]),
        (None, [13, 14]),
        (None, [15, 16]),  # `long` overflows: every row slides
        ([1, 1], [17, 18]),  # `long` pruned: the rest fits again
    ]:
        before = irn.decode_stats.tokens_fallback
        scores = irn.advance_decoding_session(session, new_items, parents)
        regimes.append(irn.decode_stats.tokens_fallback - before)
        with on_float64(irn):
            reference = irn.score_with_objective_batch(
                session.rows, session.objectives, list(session.users)
            )
        assert_scores_match(scores, reference, float32)
    assert regimes == [
        2 * (len(long) + 1) + 2 * 2,
        2 * (len(long) + 1) + 2 * 3,
        2 * WINDOW,
        1 * (len(short) + 1) + 2 * 5,
    ]


@pytest.mark.usefixtures("float64_program")
class TestSharedHistorySessions:
    @pytest.mark.parametrize("mask_type", MASKS, ids=lambda mask: mask.name.lower())
    @pytest.mark.parametrize("num_layers", LAYERS)
    @settings(max_examples=25, deadline=None)
    @given(scenario=scenarios())
    def test_every_advance_matches_the_uncached_scorer(
        self, models, num_layers, mask_type, scenario
    ):
        check_every_advance(models(num_layers, mask_type), scenario, float32=False)

    @pytest.mark.parametrize("mask_type", MASKS, ids=lambda mask: mask.name.lower())
    @pytest.mark.parametrize("num_layers", LAYERS)
    @settings(max_examples=15, deadline=None)
    @given(case=shortlisted_scenarios())
    def test_every_advance_matches_in_shortlist_space(
        self, models, num_layers, mask_type, case
    ):
        scenario, table = case
        check_every_advance(models(num_layers, mask_type), scenario, float32=False, table=table)

    @pytest.mark.parametrize("num_layers", LAYERS)
    def test_an_emptied_session_keeps_its_space(self, models, num_layers):
        irn = models(num_layers, MaskType.PERSONALIZED)
        table = np.asarray([[1, 2, 3], [4, 5, 5]])
        for candidates, width in ((table, 3), (None, irn.vocab_size)):
            scores, session = irn.begin_decoding_session(
                [[1, 2], [3]], [7, 8], [0, 1], candidate_items=candidates
            )
            assert scores.shape == (2, width)
            assert irn.advance_decoding_session(session, [], []).shape == (0, width)

    @pytest.mark.parametrize(
        "objectives, table",
        [
            ([7, 8], np.asarray([1, 2, 3])),
            (None, np.asarray([[1, 2], [3, 4]])),
            ([7, 8], np.asarray([[1, 2]])),
        ],
        ids=["shared-set", "objective-free", "short-batch"],
    )
    def test_a_session_takes_only_a_per_row_table_with_objectives(
        self, models, objectives, table
    ):
        with pytest.raises(ConfigurationError):
            models(1, MaskType.PERSONALIZED).begin_decoding_session(
                [[1, 2], [3]], objectives, candidate_items=table
            )

    def test_overflow_mid_session_keeps_matching(self, models):
        """A window that outgrows ``max_sequence_length`` slides per row, and a
        session shares history again once the overflowing row is pruned."""
        check_overflow_mid_session(models(2, MaskType.PERSONALIZED), float32=False)

    @pytest.mark.parametrize("mask_type", MASKS, ids=lambda mask: mask.name.lower())
    @pytest.mark.parametrize("num_layers", LAYERS)
    def test_plans_equal_with_sessions_on_and_off(
        self, tiny_split, models, num_layers, mask_type
    ):
        irn = models(num_layers, mask_type)
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=8)
        args = (
            [list(inst.history) for inst in instances],
            [inst.objective for inst in instances],
            [inst.user_index for inst in instances],
        )
        on = BeamSearchPlanner(irn, plan_cache_size=0).fit(tiny_split)
        off = ReferenceBeamPlanner(irn, sessions=False, plan_cache_size=0).fit(tiny_split)
        # max_length 8 on a 12-token window: the longer histories overflow mid-plan
        assert on.plan_paths_batch(*args, max_length=8) == off.plan_paths_batch(
            *args, max_length=8
        )


class TestFloat32Sessions:
    """The float32 program IRN plans on: its sessions, in every regime, stay
    within the float32 bound of the float64 uncached scorer."""

    @pytest.mark.parametrize("mask_type", MASKS, ids=lambda mask: mask.name.lower())
    @pytest.mark.parametrize("num_layers", LAYERS)
    @settings(max_examples=25, deadline=None)
    @given(scenario=scenarios())
    def test_every_advance_stays_within_the_float32_bound(
        self, models, num_layers, mask_type, scenario
    ):
        irn = models(num_layers, mask_type)
        assert irn._program().dtype == np.float32
        check_every_advance(irn, scenario, float32=True)

    def test_overflow_mid_session_stays_within_the_float32_bound(self, models):
        irn = models(2, MaskType.PERSONALIZED)
        assert irn._program().dtype == np.float32
        check_overflow_mid_session(irn, float32=True)


@pytest.mark.usefixtures("float64_program")
class TestOneQueryFinalLayer:
    @pytest.mark.parametrize("num_layers", LAYERS)
    def test_inference_forward_equals_gathered_graph_forward(self, models, num_layers):
        irn = models(num_layers, MaskType.PERSONALIZED)
        module = irn.module
        rows = [[5], [3, 9, 4, 7], [2, 6, 8, 10, 12, 14, 1]]  # objective last, ragged
        items, positions, _ = irn._right_align(rows)
        users = np.asarray([0, 3, 7])
        graph = module(  # grad enabled: the training path
            items,
            users,
            mask_type=irn.mask_type,
            objective_weight=irn.objective_weight * irn.objective_logit_scale,
            history_weight=irn.history_weight,
            positions=positions,
        )
        assert graph.requires_grad and graph.shape == (3, items.shape[1], irn.vocab_size)
        program = irn._program()
        mask = irn._pim(program, items, users)
        shortlist = np.asarray([1, 4, 9, 16, 25])
        per_row = np.stack([shortlist, shortlist[::-1], shortlist + 1])  # one per row
        for columns in (np.asarray([items.shape[1] - 2]), np.asarray([0, items.shape[1] - 1])):
            hidden = program.encode(program.embed(items, positions), mask, queries=columns)
            # the final layer answered only the named queries of each row
            assert hidden.shape == (3, len(columns), irn.embedding_dim)
            expected = graph.data[:, columns]
            full = program.project(hidden)
            assert full.shape == (3, len(columns), irn.vocab_size)
            np.testing.assert_allclose(full, expected, rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                program.project_rows(hidden, program.item_table[per_row]),
                np.take_along_axis(expected, per_row[:, None, :], axis=2),
                rtol=0,
                atol=1e-10,
            )

    def test_graph_forward_takes_no_query_columns(self, models):
        """Naming the queries is the compiled program's business; the graph
        forward — the parity oracle — is always the full one."""
        irn = models(2, MaskType.PERSONALIZED)
        items, positions, _ = irn._right_align([[3, 9, 4]])
        with pytest.raises(TypeError):
            irn.module(items, np.asarray([0]), positions=positions, query_columns=slice(-2, -1))
