import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widir.errors import (
    DimensionError,
    ModelFormatError,
    ModelVersionError,
    ParamCountError,
)
import model_oracle
from model_oracle import einsum_scores, min_abs_preactivation
from widir.model import (
    MODEL_MAGIC,
    Rows,
    WidirDims,
    backward_batch,
    deserialize,
    forward_batch,
    hinge_losses,
    init_params,
    pair_gradients,
    param_count,
    score_rows,
    serialize,
)

TABLE_COUNTS = {
    "player_branch": 11072,
    "contest_branch": 4928,
    "interaction_branch": 704,
    "wide": 128,
    "deep": 68096,
    "combined": 14796,
    "final": 29,
}


def closed_form_total(d_p, d_c, d_i):
    return 65 * d_p + 65 * d_c + 17 * d_i + 91930


class TestParamCount:
    def test_default_dims_match_published_counts(self):
        per, total = param_count(WidirDims(107, 11, 9))
        assert per == TABLE_COUNTS
        assert total == 99_753 == closed_form_total(107, 11, 9)

    def test_unit_dims(self):
        _, total = param_count(WidirDims(1, 1, 1))
        assert total == 92_077 == closed_form_total(1, 1, 1)

    def test_interaction_component_formula(self):
        per, _ = param_count(WidirDims(107, 11, 9))
        assert per["interaction_branch"] == 16 * 9 + 560 == 704

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 50), st.integers(1, 50))
    def test_closed_form_holds_for_all_dims(self, d_p, d_c, d_i):
        per, total = param_count(WidirDims(d_p, d_c, d_i))
        assert total == closed_form_total(d_p, d_c, d_i)
        assert per["player_branch"] == 64 * d_p + 4224
        assert per["contest_branch"] == 64 * d_c + 4224
        assert per["interaction_branch"] == 16 * d_i + 560
        assert per["wide"] == d_p + d_c + d_i + 1

    def test_allocated_tally_equals_formula(self):
        for dims in (WidirDims(107, 11, 9), WidirDims(5, 4, 3), WidirDims(2, 2, 2)):
            params = init_params(dims, seed=3)
            per, total = param_count(dims)
            assert params.tally() == per
            assert sum(params.tally().values()) == total

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(DimensionError):
            param_count(WidirDims(0, 1, 1))


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(WidirDims(5, 4, 3), seed=9)
        b = init_params(WidirDims(5, 4, 3), seed=9)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_different_seed_differs(self):
        a = init_params(WidirDims(5, 4, 3), seed=9)
        b = init_params(WidirDims(5, 4, 3), seed=10)
        assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))

    def test_biases_zero_and_weights_bounded(self):
        params = init_params(WidirDims(107, 11, 9), seed=0)
        for name, _, layer in params.layers():
            np.testing.assert_array_equal(layer.b, np.zeros_like(layer.b))
            limit = np.sqrt(6.0 / layer.w.shape[0]) * (1 + 1e-6)
            assert np.abs(layer.w).max() <= limit


def _rand_inputs(rng, dims, n=1):
    return (
        rng.standard_normal((n, dims.d_p)),
        rng.standard_normal((n, dims.d_c)),
        rng.standard_normal((n, dims.d_i)),
    )


class TestForward:
    def test_zero_params_score_zero(self):
        dims = WidirDims(5, 4, 3)
        params = init_params(dims, 0, dtype=np.float64)
        zero = params.zeros_like()
        rng = np.random.default_rng(1)
        scores = forward_batch(zero, *_rand_inputs(rng, dims, 8))
        np.testing.assert_array_equal(scores, np.zeros(8))

    def test_batched_equals_singles_exactly(self):
        dims = WidirDims(7, 5, 4)
        params = init_params(dims, 2, dtype=np.float32)
        rng = np.random.default_rng(3)
        P, C, I = (a.astype(np.float32) for a in _rand_inputs(rng, dims, 33))
        batch = forward_batch(params, P, C, I)
        singles = np.array(
            [forward_batch(params, P[i : i + 1], C[i : i + 1], I[i : i + 1])[0] for i in range(33)]
        )
        np.testing.assert_array_equal(batch, singles)

    def test_forward_is_pure(self):
        dims = WidirDims(5, 4, 3)
        params = init_params(dims, 5, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = _rand_inputs(rng, dims, 4)
        np.testing.assert_array_equal(forward_batch(params, *x), forward_batch(params, *x))

    def test_dimension_mismatch_names_component(self):
        dims = WidirDims(5, 4, 3)
        params = init_params(dims, 0)
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError, match="player_branch"):
            forward_batch(params, rng.standard_normal((1, 6)), rng.standard_normal((1, 4)),
                          rng.standard_normal((1, 3)))
        with pytest.raises(DimensionError, match="contest_branch"):
            forward_batch(params, rng.standard_normal((1, 5)), rng.standard_normal((1, 5)),
                          rng.standard_normal((1, 3)))

    def test_hand_traced_wide_path(self):
        # all parameters zero except the wide branch and the final layers
        dims = WidirDims(2, 2, 2)
        params = init_params(dims, 0, dtype=np.float64).zeros_like()
        c = params.components
        c["wide"][0].w[:, 0] = [1, 2, 3, 4, 5, 6]
        c["wide"][0].b[0] = 0.5
        c["final"][0].w[4, :] = [1, -1, 2, 0]
        c["final"][0].b[:] = [0.1, 0, -0.2, 0.3]
        c["final"][1].w[:, 0] = [1, 1, 1, 1]
        c["final"][1].b[0] = -0.05
        scores = forward_batch(params, np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), np.array([[5.0, 6.0]]))
        # wide = 1+4+9+16+25+36+0.5 = 91.5; deep side is all zeros
        # final hidden = relu([92.6-1, -91.5, 183-0.2, 0.3]) = [91.6, 0, 182.8, 0.3]
        # score = 91.6 + 182.8 + 0.3 - 0.05 = 274.65
        assert scores.shape == (1,)
        assert scores[0] == pytest.approx(274.65, abs=1e-12)

    def test_hand_traced_deep_path(self):
        dims = WidirDims(2, 2, 2)
        params = init_params(dims, 0, dtype=np.float64).zeros_like()
        c = params.components
        c["player_branch"][0].w[0, 0] = 1.0
        c["player_branch"][1].w[0, 0] = 1.0
        for layer in c["deep"]:
            layer.w[0, 0] = 1.0
        for layer in c["combined"]:
            layer.w[0, 0] = 1.0
        c["final"][0].w[0, 0] = 1.0
        c["final"][1].w[0, 0] = 2.0
        c["final"][1].b[0] = 1.0
        scores = forward_batch(params, np.array([[1.5, -3.0]]), np.array([[7.0, 7.0]]), np.array([[7.0, 7.0]]))
        # the 1.5 passes down the [0,0] chain; score = 2 * 1.5 + 1
        assert scores.shape == (1,)
        assert scores[0] == pytest.approx(4.0, abs=1e-12)

    def test_ranking_invariant_to_final_layer_scale(self):
        dims = WidirDims(6, 5, 4)
        params = init_params(dims, 8, dtype=np.float64)
        rng = np.random.default_rng(9)
        P, C, I = _rand_inputs(rng, dims, 40)
        base = forward_batch(params, P, C, I)
        scaled = params.copy()
        scaled.components["final"][1].w *= 3.7
        scaled.components["final"][1].b *= 3.7
        out = forward_batch(scaled, P, C, I)
        np.testing.assert_array_equal(np.argsort(-base), np.argsort(-out))


INVARIANCE_SIZES = (1, 7, 8, 9, 255, 256, 257, 1000, 4099)
INVARIANCE_OFFSETS = (0, 5, 131)

# Scores the same seeded inputs in a fresh process; prints a digest of the bytes.
_THREADS_SCRIPT = """
import hashlib
import numpy as np
from widir.model import WidirDims, forward_batch, init_params
dims = WidirDims()
rng = np.random.default_rng(11)
x = [rng.standard_normal((4099, d)).astype(np.float32) for d in (dims.d_p, dims.d_c, dims.d_i)]
h = hashlib.sha256()
for dtype in (np.float32, np.float64):
    params = init_params(dims, 4, dtype=dtype)
    for n in (1, 9, 257, 4099):
        h.update(forward_batch(params, *(a[:n].astype(dtype) for a in x)).tobytes())
print(h.hexdigest())
"""


class TestExactKernel:
    """The exact path: batch-invariant bit for bit, and close to plain einsum."""

    dims = WidirDims()

    @pytest.fixture(scope="class", params=[np.float32, np.float64], ids=["f32", "f64"])
    def scored(self, request):
        dtype = request.param
        params = init_params(self.dims, 6, dtype=dtype)
        rng = np.random.default_rng(7)
        n = max(INVARIANCE_OFFSETS) + max(INVARIANCE_SIZES)
        x = tuple(a.astype(dtype) for a in _rand_inputs(rng, self.dims, n))
        singles = np.array([forward_batch(params, *(a[i : i + 1] for a in x))[0] for i in range(n)])
        return params, x, singles

    @pytest.mark.parametrize("offset", INVARIANCE_OFFSETS)
    @pytest.mark.parametrize("size", INVARIANCE_SIZES)
    def test_batch_equals_singles_bitwise(self, scored, size, offset):
        params, x, singles = scored
        batch = forward_batch(params, *(a[offset : offset + size] for a in x))
        assert batch.dtype == singles.dtype
        assert batch.tobytes() == singles[offset : offset + size].tobytes()

    @pytest.mark.parametrize("size", INVARIANCE_SIZES)
    def test_agrees_with_einsum_oracle(self, scored, size):
        params, x, _ = scored
        batch = forward_batch(params, *(a[:size] for a in x))
        oracle = einsum_scores(params, *(a[:size] for a in x))
        # the summation order differs from einsum's; scale the floor by the
        # largest score so near-zero scores are not held to a relative bound
        np.testing.assert_allclose(batch, oracle, rtol=1e-5, atol=1e-5 * np.abs(oracle).max())

    def test_same_bytes_with_one_and_two_blas_threads(self):
        import os
        import subprocess
        import sys

        import widir

        src = os.path.dirname(os.path.dirname(os.path.abspath(widir.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", _THREADS_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

def _factored_rows(rng, dims, n_players, n_templates, n_rows, dtype):
    """Random rows in three spaces; every player and template row backs some pair rows."""
    return Rows(
        player=rng.standard_normal((n_players, dims.d_p)).astype(dtype),
        contest=rng.standard_normal((n_templates, dims.d_c)).astype(dtype),
        interaction=rng.standard_normal((n_rows, dims.d_i)).astype(dtype),
        player_of=rng.permutation(np.arange(n_rows) % n_players),
        contest_of=rng.permutation(np.arange(n_rows) % n_templates),
    )


def _flat(rows, r):
    """The flat (player, contest, interaction) triples of pair rows r."""
    return rows.player[rows.player_of[r]], rows.contest[rows.contest_of[r]], rows.interaction[r]


def _sub_rows(rows, r):
    """Pair rows r alone, with only the player and template rows they use."""
    players, player_of = np.unique(rows.player_of[r], return_inverse=True)
    contests, contest_of = np.unique(rows.contest_of[r], return_inverse=True)
    return Rows(rows.player[players], rows.contest[contests], rows.interaction[r], player_of, contest_of)


class TestFactoredGraph:
    """The factored graph against the flat oracle: scores bit for bit, gradients per pair."""

    dims = WidirDims()

    @pytest.fixture(scope="class", params=[np.float32, np.float64], ids=["f32", "f64"])
    def scored(self, request):
        dtype = request.param
        params = init_params(self.dims, 12, dtype=dtype)
        rng = np.random.default_rng(13)
        n = max(INVARIANCE_OFFSETS) + max(INVARIANCE_SIZES)
        rows = _factored_rows(rng, self.dims, 300, 48, n, dtype)
        singles = np.array([score_rows(params, _sub_rows(rows, [r]))[0] for r in range(n)])
        return params, rows, singles

    @pytest.mark.parametrize("offset", INVARIANCE_OFFSETS)
    @pytest.mark.parametrize("size", INVARIANCE_SIZES)
    def test_scores_equal_single_rows_bitwise(self, scored, size, offset):
        params, rows, singles = scored
        batch = score_rows(params, _sub_rows(rows, np.arange(offset, offset + size)))
        assert batch.dtype == singles.dtype
        assert batch.tobytes() == singles[offset : offset + size].tobytes()

    @pytest.mark.parametrize("size", INVARIANCE_SIZES)
    def test_scores_agree_with_einsum_oracle(self, scored, size):
        params, rows, _ = scored
        batch = score_rows(params, _sub_rows(rows, np.arange(size)))
        oracle = einsum_scores(params, *_flat(rows, np.arange(size)))
        np.testing.assert_allclose(batch, oracle, rtol=1e-5, atol=1e-5 * np.abs(oracle).max())

    def test_scores_equal_flat_forward_batch_bitwise(self, scored):
        params, rows, _ = scored
        r = np.arange(rows.interaction.shape[0])
        assert score_rows(params, rows).tobytes() == forward_batch(params, *_flat(rows, r)).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-10)], ids=["f32", "f64"])
    @pytest.mark.parametrize("players, templates, n_rows, n_pairs", [(6, 5, 40, 300), (200, 150, 400, 1000)],
                             ids=["one-hot-sums", "bincount-sums"])
    def test_gradients_equal_oracle_per_pair_sum(self, dtype, rtol, seed, players, templates, n_rows, n_pairs):
        # every pair row is shared by several pairs, on both sides, and every
        # player and template row by several pair rows; the second shape has more
        # player and template rows than _segment_sum's one-hot limit. The oracle
        # sums the same values in float64, so the tolerance bounds the factored
        # graph's own rounding.
        params = init_params(self.dims, 40 + seed, dtype=dtype)
        rng = np.random.default_rng(seed)
        rows = _factored_rows(rng, self.dims, players, templates, n_rows, dtype)
        pos = rng.integers(0, n_rows, n_pairs)
        neg = (pos + rng.integers(1, n_rows, n_pairs)) % n_rows
        grads, losses = pair_gradients(params, rows, pos, neg)
        want, want_losses = model_oracle.backward_batch(
            model_oracle.astype(params, np.float64),
            *([a.astype(np.float64) for a in _flat(rows, side)] for side in (pos, neg)),
        )
        assert 0 < (losses > 0).sum() < losses.size
        np.testing.assert_allclose(losses, want_losses, rtol=rtol, atol=rtol)
        for got, oracle in zip(grads.arrays(), want.arrays()):
            np.testing.assert_allclose(got, oracle, rtol=rtol, atol=rtol * np.abs(oracle).max())

    def test_backward_batch_equals_oracle(self):
        params = init_params(self.dims, 50, dtype=np.float64)
        rng = np.random.default_rng(51)
        pos, neg = _rand_inputs(rng, self.dims, 64), _rand_inputs(rng, self.dims, 64)
        grads, losses = backward_batch(params, pos, neg)
        want, want_losses = model_oracle.backward_batch(params, pos, neg)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12)
        for got, oracle in zip(grads.arrays(), want.arrays()):
            np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=1e-10 * np.abs(oracle).max())

    def test_unmapped_rows_rejected(self):
        params = init_params(self.dims, 0)
        rows = _factored_rows(np.random.default_rng(0), self.dims, 3, 2, 5, np.float32)
        with pytest.raises(DimensionError, match="player"):
            score_rows(params, Rows(rows.player, rows.contest, rows.interaction, rows.player_of[:4],
                                    rows.contest_of))
        with pytest.raises(DimensionError, match="contest"):
            score_rows(params, Rows(rows.player, rows.contest, rows.interaction, rows.player_of))


class TestHingeLoss:
    def test_margin_satisfied(self):
        assert hinge_losses(2.0, 0.5) == 0.0

    def test_equal_scores(self):
        for s in (-1e9, -3.25, 0.0, 1e-8, 7.5, 1e12):
            assert hinge_losses(s, s) == 1.0

    def test_direct_arithmetic(self):
        assert hinge_losses(0.2, 0.5) == 1.3

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(1000) * 10
        t = rng.standard_normal(1000) * 10
        assert np.all(hinge_losses(s, t) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-8192, 8192), st.integers(-8192, 8192), st.integers(-8192, 8192)
    )
    def test_shift_invariance_exact_on_dyadic_lattice(self, a, b, k):
        # scores and shifts that are multiples of 2^-10 make every float op
        # exact, so the identity holds with == rather than a tolerance
        s, t, shift = a / 1024.0, b / 1024.0, k / 1024.0
        assert hinge_losses(s + shift, t + shift) == hinge_losses(s, t)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
    )
    def test_shift_invariance_approximate_for_arbitrary_floats(self, s, t, k):
        assert hinge_losses(s + k, t + k) == pytest.approx(hinge_losses(s, t), abs=1e-9)


def rel_error(fd: float, an: float, floor: float = 1e-6) -> float:
    return abs(fd - an) / max(abs(fd), abs(an), floor)


def fd_gradient(params, pos, neg, array_idx, flat_idx, step=1e-5):
    arrays = params.arrays()
    a = arrays[array_idx]
    orig = a.flat[flat_idx]

    def loss():
        sp = forward_batch(params, *pos)[0]
        sn = forward_batch(params, *neg)[0]
        return hinge_losses(sp, sn)

    a.flat[flat_idx] = orig + step
    lp = loss()
    a.flat[flat_idx] = orig - step
    lm = loss()
    a.flat[flat_idx] = orig
    return (lp - lm) / (2 * step)


class TestBackward:
    dims = WidirDims(5, 4, 3)

    def _active_pair(self, params, rng):
        """A pair with a comfortably active hinge, away from ReLU kinks."""
        for _ in range(200):
            pos = tuple(a for a in _rand_inputs(rng, self.dims, 1))
            neg = tuple(a for a in _rand_inputs(rng, self.dims, 1))
            min_pre = min(min_abs_preactivation(params, *side) for side in (pos, neg))
            sp = forward_batch(params, *pos)[0]
            sn = forward_batch(params, *neg)[0]
            slack = 1.0 - (sp - sn)
            if slack > 0.05 and min_pre > 1e-3:
                return pos, neg
        raise AssertionError("could not find a kink-free active pair")

    def test_margin_satisfied_pair_has_zero_gradient(self):
        params = init_params(self.dims, 1, dtype=np.float64)
        rng = np.random.default_rng(2)
        for _ in range(100):
            pos = _rand_inputs(rng, self.dims, 1)
            neg = _rand_inputs(rng, self.dims, 1)
            sp = forward_batch(params, *pos)[0]
            sn = forward_batch(params, *neg)[0]
            if 1.0 - (sp - sn) <= -0.01:
                grads, losses = backward_batch(params, pos, neg)
                assert losses[0] == 0.0
                assert all(np.all(g == 0) for g in grads.arrays())
                return
        raise AssertionError("no margin-satisfied pair found")

    def test_margin_exactly_met_is_inactive(self):
        # wide-only network scoring p[0]: s_pos - s_neg == 1 exactly
        params = init_params(WidirDims(2, 2, 2), 0, dtype=np.float64).zeros_like()
        params.components["wide"][0].w[0, 0] = 1.0
        params.components["final"][0].w[4, 0] = 1.0
        params.components["final"][1].w[0, 0] = 1.0
        pos = (np.array([[1.0, 0.0]]), np.zeros((1, 2)), np.zeros((1, 2)))
        neg = (np.array([[0.0, 0.0]]), np.zeros((1, 2)), np.zeros((1, 2)))
        grads, losses = backward_batch(params, pos, neg)
        assert losses[0] == 0.0
        assert all(np.all(g == 0) for g in grads.arrays())

    def test_gradients_match_finite_differences(self):
        params = init_params(self.dims, 7, dtype=np.float64)
        rng = np.random.default_rng(11)
        arrays = params.arrays()
        worst = 0.0
        for _ in range(8):
            pos, neg = self._active_pair(params, rng)
            grads, _ = backward_batch(params, pos, neg)
            garrays = grads.arrays()
            for _ in range(30):
                ai = int(rng.integers(len(arrays)))
                fi = int(rng.integers(arrays[ai].size))
                fd = fd_gradient(params, pos, neg, ai, fi)
                worst = max(worst, rel_error(fd, garrays[ai].flat[fi]))
        assert worst < 1e-4

    def test_small_components_exhaustively(self):
        # every parameter of the wide, interaction and final components
        params = init_params(self.dims, 13, dtype=np.float64)
        rng = np.random.default_rng(17)
        pos, neg = self._active_pair(params, rng)
        grads, _ = backward_batch(params, pos, neg)
        garrays = grads.arrays()
        worst = 0.0
        ai = 0
        for name, _, layer in params.layers():
            for tensor in (layer.w, layer.b):
                if name in ("wide", "interaction_branch", "final"):
                    for fi in range(tensor.size):
                        fd = fd_gradient(params, pos, neg, ai, fi)
                        worst = max(worst, rel_error(fd, garrays[ai].flat[fi]))
                ai += 1
        assert worst < 1e-4

    def test_swapped_pair_negates_wide_gradient(self):
        params = init_params(self.dims, 23, dtype=np.float64)
        rng = np.random.default_rng(29)
        for _ in range(300):
            pos = _rand_inputs(rng, self.dims, 1)
            neg = _rand_inputs(rng, self.dims, 1)
            sp = forward_batch(params, *pos)[0]
            sn = forward_batch(params, *neg)[0]
            if abs(sp - sn) < 0.9:  # both orientations active
                g1, _ = backward_batch(params, pos, neg)
                g2, _ = backward_batch(params, neg, pos)
                w1 = g1.components["wide"][0]
                w2 = g2.components["wide"][0]
                np.testing.assert_allclose(w1.w, -w2.w, rtol=1e-12, atol=0)
                np.testing.assert_allclose(w1.b, -w2.b, rtol=1e-12, atol=0)
                return
        raise AssertionError("no doubly-active pair found")

    def test_batched_sum_equals_per_pair_sum(self):
        params = init_params(self.dims, 31, dtype=np.float64)
        rng = np.random.default_rng(37)
        P1, C1, I1 = _rand_inputs(rng, self.dims, 16)
        P2, C2, I2 = _rand_inputs(rng, self.dims, 16)
        batch_grads, batch_losses = backward_batch(params, (P1, C1, I1), (P2, C2, I2))
        acc = params.zeros_like()
        for i in range(16):
            g, l = backward_batch(
                params,
                (P1[i : i + 1], C1[i : i + 1], I1[i : i + 1]),
                (P2[i : i + 1], C2[i : i + 1], I2[i : i + 1]),
            )
            assert l[0] == pytest.approx(batch_losses[i], rel=1e-12)
            for a, b in zip(acc.arrays(), g.arrays()):
                a += b
        for a, b in zip(acc.arrays(), batch_grads.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestSerialization:
    def test_round_trip_bitwise(self):
        params = init_params(WidirDims(107, 11, 9), seed=5, dtype=np.float32)
        # give biases non-trivial values so the round trip is meaningful
        for _, _, layer in params.layers():
            layer.b += np.float32(0.25)
        loaded = deserialize(serialize(params))
        assert loaded.dims == params.dims
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_truncated_stream(self):
        params = init_params(WidirDims(5, 4, 3), seed=0)
        data = serialize(params)
        with pytest.raises(ModelFormatError):
            deserialize(data[: len(data) // 2])

    def test_trailing_bytes(self):
        params = init_params(WidirDims(5, 4, 3), seed=0)
        with pytest.raises(ModelFormatError):
            deserialize(serialize(params) + b"\x00")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["w", "b"])
    def test_non_finite_weight(self, array, value):
        params = init_params(WidirDims(5, 4, 3), seed=0)
        getattr(params.components["combined"][0], array).flat[1] = value
        with pytest.raises(ModelFormatError, match="component combined has a NaN or infinite weight"):
            deserialize(serialize(params))

    def test_bad_magic(self):
        params = init_params(WidirDims(5, 4, 3), seed=0)
        data = serialize(params)
        with pytest.raises(ModelFormatError):
            deserialize(b"XXXX" + data[4:])

    def test_unsupported_version(self):
        params = init_params(WidirDims(5, 4, 3), seed=0)
        data = bytearray(serialize(params))
        data[4] = 99  # little-endian u16 version field
        with pytest.raises(ModelVersionError):
            deserialize(bytes(data))

    def test_doctored_layer_shape_fails_count_check(self):
        params = init_params(WidirDims(5, 4, 3), seed=0)
        params.components["interaction_branch"][0].w = np.zeros((2, 16), dtype=np.float32)
        with pytest.raises(ParamCountError, match="interaction_branch"):
            deserialize(serialize(params))

    def test_failed_save_keeps_previous_model(self, tmp_path, monkeypatch):
        import widir.model as model

        path = tmp_path / "model.bin"
        old = init_params(WidirDims(5, 4, 3), seed=0)
        model.save_model(path, old)

        def crash(_params):
            raise OSError("disk full")

        monkeypatch.setattr(model, "serialize", crash)
        with pytest.raises(OSError, match="disk full"):
            model.save_model(path, init_params(WidirDims(5, 4, 3), seed=1))
        monkeypatch.undo()
        for a, b in zip(old.arrays(), model.load_model(path).arrays()):
            np.testing.assert_array_equal(a, b)
