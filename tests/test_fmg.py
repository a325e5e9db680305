import json
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from hinfuse import fmg
from hinfuse.factors import FactorPair, ObservedMatrix, factorize_mf
from hinfuse.hin import RatingSet


def make_pair(name, m, n, rank, seed=0):
    rng = np.random.default_rng(seed)
    return FactorPair(rng.normal(size=(m, rank)), rng.normal(size=(n, rank)), metagraph=name)


def make_ratings(users, items, values):
    return RatingSet(np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64),
                     np.asarray(values, dtype=float), "train")


def gathered(table):
    """The (N, d) sample matrix a table stands for, built row by row from its blocks."""
    return np.hstack([features[index] for features, index in table.blocks])


def rating_table(pairs, ratings):
    features, layout = fmg.factor_blocks(pairs)
    return fmg.FeatureTable(ratings.values, tuple(zip(features, (ratings.users, ratings.items)))), layout


def dense_row(x):
    return fmg.FeatureTable.dense(np.asarray(x, dtype=float)[None, :], [0.0])


def dense_table(X):
    return fmg.FeatureTable.dense(X, np.zeros(len(X)))


def predict_one(params, x):
    return fmg.predict_batch(params, dense_row(x))[0]


class TestAssemble:
    def test_widths_and_group_count(self):
        pairs = [make_pair("m1", 4, 3, 3), make_pair("m2", 4, 3, 5)]
        table, layout = rating_table(pairs, make_ratings([0], [1], [4.0]))
        assert layout.d == 16
        assert [stop - start for _, start, stop in layout.groups] == [3, 5, 3, 5]
        assert layout.labels == ["m1:user", "m2:user", "m1:item", "m2:item"]
        assert len(table) == 1 and table.d == 16
        assert [features.shape for features, _ in table.blocks] == [(4, 8), (3, 8)]

    def test_feature_row_ordering(self):
        pairs = [make_pair("m1", 3, 3, 2, seed=1), make_pair("m2", 3, 3, 2, seed=2)]
        table, _ = rating_table(pairs, make_ratings([1], [2], [3.0]))
        want = np.concatenate([pairs[0].U[1], pairs[1].U[1], pairs[0].B[2], pairs[1].B[2]])
        assert np.array_equal(gathered(table)[0], want)

    def test_absent_item_contributes_zero_block(self):
        # item 1 has no observed similarity, so the engine gives it a zero factor row
        obs = ObservedMatrix((4, 4), np.array([0, 1, 2, 3]), np.array([0, 2, 3, 0]), np.ones(4))
        pair = factorize_mf(obs, 2, mu=0.1, seed=0, name="m1")
        table, layout = rating_table([pair], make_ratings([0], [1], [2.0]))
        _, start, stop = layout.groups[1]
        X = gathered(table)
        assert np.all(X[0, start:stop] == 0.0)
        assert np.any(X[0, :start] != 0.0)

    def test_zero_ratings_gives_empty_table(self):
        table, layout = rating_table([make_pair("m1", 3, 3, 2)], make_ratings([], [], []))
        assert len(table) == 0 and gathered(table).shape == (0, 4) and table.d == layout.d == 4

    def test_mismatched_entity_sets_rejected(self):
        pairs = [make_pair("m1", 3, 3, 2), make_pair("m2", 4, 3, 2)]
        with pytest.raises(ValueError, match="share the entity sets"):
            fmg.factor_blocks(pairs)


class TestPredict:
    def test_bias_only(self):
        params = fmg.FmParams(2.5, np.zeros(3), np.zeros((3, 2)))
        assert predict_one(params, [1.0, 2.0, 3.0]) == 2.5

    def test_hand_computed_example(self):
        params = fmg.FmParams(1.0, np.array([1.0, 0.0]), np.array([[1.0], [2.0]]))
        assert predict_one(params, [1.0, 2.0]) == pytest.approx(6.0, abs=1e-12)

    def test_zero_features_give_bias(self):
        rng = np.random.default_rng(0)
        params = fmg.FmParams(0.7, rng.normal(size=4), rng.normal(size=(4, 3)))
        assert predict_one(params, np.zeros(4)) == pytest.approx(0.7)

    def test_fast_identity_matches_double_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d, K = rng.integers(2, 21), rng.integers(1, 6)
            params = fmg.FmParams(rng.normal(), rng.normal(size=d), rng.normal(size=(d, K)))
            x = rng.normal(size=d)
            fast = predict_one(params, x)
            slow = fmg.predict_pairwise_reference(params, x)
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        params = fmg.FmParams(rng.normal(), rng.normal(size=5), rng.normal(size=(5, 2)))
        X = rng.normal(size=(7, 5))
        batch = fmg.predict_batch(params, fmg.FeatureTable.dense(X, np.zeros(7)))
        assert np.allclose(batch, [predict_one(params, x) for x in X], atol=1e-12)


def shared_block_table(rng, n_users=5, n_items=4, n=12, half=3):
    """User and item blocks that several rows share, as the pipeline builds them."""
    users, items = rng.normal(size=(n_users, half)), rng.normal(size=(n_items, half))
    index = (rng.integers(0, n_users, n), rng.integers(0, n_items, n))
    return fmg.FeatureTable(rng.normal(size=n), ((users, index[0]), (items, index[1])))


def bincount_mse_grad(params, table):
    """The MSE gradient with each entity's sums taken by ``np.bincount`` over (row, k) slots."""
    rows, pred = fmg._forward(params, table)
    residual = pred - table.y
    rows[:, :-1] *= residual[:, None]
    rows[:, -1] = residual
    width = params.K + 1
    grad = np.empty((params.d, width))
    for (F, index), Fsq, cols in zip(table.blocks, table.squares, table.columns):
        slots = (index[:, None] * width + np.arange(width)).ravel()
        sums = np.bincount(slots, rows.ravel(), len(F) * width).reshape(len(F), width)
        grad[cols] = fmg._sum_over_rows(sums, F).T
        grad[cols, :-1] -= params.V[cols] * fmg._sum_over_rows(sums[:, -1], Fsq)[:, None]
    scale = 2.0 / len(table)
    return scale * float(np.sum(residual)), scale * grad[:, -1], scale * grad[:, :-1]


class TestBlocks:
    def test_gradient_equals_bincount_sums_exactly(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            n = int(rng.integers(1, 60))
            users = rng.normal(size=(9, 4))
            user_index = rng.integers(0, 8, n)  # unsorted, repeated, and user 8 never drawn
            user_index[user_index == 3] = 4  # nor user 3, inside the range
            items = rng.normal(size=(6, 3))
            identity = fmg.FeatureTable.dense(rng.normal(size=(n, 2)), np.zeros(n)).blocks[0]
            table = fmg.FeatureTable(rng.normal(size=n), (
                (users, user_index), (items, rng.integers(0, 6, n)), identity))
            parts = (table, table.rows(rng.integers(0, n, 16)), fmg.FeatureTable.dense(gathered(table), table.y))
            for part in parts:
                for _ in range(2):  # a second call overwrites the index's data
                    K = int(rng.integers(1, 5))
                    params = fmg.FmParams(rng.normal(), rng.normal(size=table.d), rng.normal(size=(table.d, K)))
                    for got, want in zip(fmg.mse_grad(params, part), bincount_mse_grad(params, part)):
                        assert np.array_equal(got, want), trial

    def test_predictions_match_double_sum_on_gathered_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = shared_block_table(rng)
            K = int(rng.integers(1, 5))
            params = fmg.FmParams(rng.normal(), rng.normal(size=table.d), rng.normal(size=(table.d, K)))
            for part in (table, table.rows(rng.integers(0, len(table), 8))):  # batch with repeats
                got = fmg.predict_batch(params, part)
                want = [fmg.predict_pairwise_reference(params, x) for x in gathered(part)]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_batch_rows_match_block_indexed_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            table = shared_block_table(rng)
            params = fmg.FmParams(rng.normal(), rng.normal(size=table.d), rng.normal(size=(table.d, 3)))
            idx = rng.integers(0, len(table), 8)  # a draw with repeats
            batch = table.rows(idx)
            assert np.array_equal(gathered(batch), gathered(table)[idx]) and np.array_equal(batch.y, table.y[idx])
            indexed = fmg.FeatureTable(table.y[idx], tuple((f, index[idx]) for f, index in table.blocks))
            for got, ref in zip(fmg.mse_grad(params, batch), fmg.mse_grad(params, indexed)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_weighted_standardizer_equals_gathered_statistics(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            table = shared_block_table(rng, n=40)
            got = fmg.fit_standardizer(table)
            want = fmg.fit_standardizer(dense_table(gathered(table)))
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
            standardized = fmg.standardize([features for features, _ in table.blocks], got)
            blocks = tuple((f, index) for f, (_, index) in zip(standardized, table.blocks))
            (Z,) = fmg.standardize([gathered(table)], want)
            assert np.max(np.abs(gathered(fmg.FeatureTable(table.y, blocks)) - Z)) <= 1e-12 * np.max(np.abs(Z))

    def test_passes_allocate_no_dense_table(self):
        rng = np.random.default_rng(14)
        n, n_users, n_items, half, K = 100_000, 200, 100, 90, 10
        table = fmg.FeatureTable(rng.normal(size=n), (
            (rng.normal(size=(n_users, half)), rng.integers(0, n_users, n)),
            (rng.normal(size=(n_items, half)), rng.integers(0, n_items, n)),
        ))
        layout = fmg.GroupLayout.from_ranks(["m1", "m2"], [45, 45])
        params = fmg.FmParams(0.1, rng.normal(size=layout.d), rng.normal(size=(layout.d, K)))
        cfg = fmg.RegConfig(mode="lsp", lam_w=0.1, lam_v=0.1)
        tracemalloc.start()
        try:
            fmg.predict_batch(params, table)
            fmg.augmented_grad(params, table, layout, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = n * layout.d * 8
        assert peak < dense_bytes / 4, (peak, dense_bytes)


class TestMseLoss:
    def table(self, ys, d=3):
        return fmg.FeatureTable.dense(np.zeros((len(ys), d)), ys)

    def test_exact_predictions(self):
        params = fmg.FmParams(2.0, np.zeros(3), np.zeros((3, 2)))
        assert fmg.mse_loss(params, self.table([2.0, 2.0])) == 0.0

    def test_unit_errors(self):
        params = fmg.FmParams(2.0, np.zeros(3), np.zeros((3, 2)))
        assert fmg.mse_loss(params, self.table([1.0, 3.0])) == pytest.approx(1.0)

    def test_mixed_errors(self):
        params = fmg.FmParams(0.0, np.zeros(3), np.zeros((3, 2)))
        assert fmg.mse_loss(params, self.table([1.0, 3.0])) == pytest.approx(5.0)

    def test_empty_table_rejected(self):
        params = fmg.FmParams(0.0, np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="empty"):
            fmg.mse_loss(params, self.table([]))


def one_group_layout():
    return fmg.GroupLayout((("m1:user", 0, 2), ("m1:item", 2, 4)), 4)


def uneven_layout():
    """Ranks (1, 3, 2): groups of widths 1, 3, 2, 1, 3, 2 over d = 12."""
    return fmg.GroupLayout.from_ranks(["a", "b", "c"], [1, 3, 2])


def uneven_point(rng, shape):
    """A random w (12,) or V (12, K) on :func:`uneven_layout` whose group "b:user" is all zero."""
    z = rng.normal(size=shape)
    z[1:4] = 0.0
    return z


def prox_reference(z, layout, thresholds):
    """Blockwise shrinkage one group slice at a time."""
    out = z.copy()
    for tau, sl in zip(thresholds, layout.slices()):
        norm = np.linalg.norm(z[sl])
        if tau > 0:
            out[sl] = 0.0 if norm <= tau else (1.0 - tau / norm) * z[sl]
    return out


class TestRegValue:
    def test_zero_params_zero_value(self):
        layout = one_group_layout()
        params = fmg.FmParams(1.0, np.zeros(4), np.zeros((4, 2)))
        for mode in ("convex", "lsp"):
            cfg = fmg.RegConfig(mode=mode, lam_w=1.0, lam_v=1.0)
            assert fmg.reg_value(params, layout, cfg) == 0.0

    def test_single_group_convex(self):
        layout = one_group_layout()
        params = fmg.FmParams(0.0, np.array([3.0, 4.0, 0.0, 0.0]), np.zeros((4, 2)))
        cfg = fmg.RegConfig(mode="convex", lam_w=1.0, lam_v=0.0)
        assert fmg.reg_value(params, layout, cfg) == pytest.approx(5.0)

    def test_single_group_lsp(self):
        layout = one_group_layout()
        params = fmg.FmParams(0.0, np.array([3.0, 4.0, 0.0, 0.0]), np.zeros((4, 2)))
        cfg = fmg.RegConfig(mode="lsp", lam_w=1.0, lam_v=0.0)
        assert fmg.reg_value(params, layout, cfg) == pytest.approx(np.log(6.0))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            fmg.RegConfig(mode="scad")


class TestAugmentedGrad:
    def random_instance(self, rng, d=4, K=2, n=3):
        layout = fmg.GroupLayout((("m1:user", 0, d // 2), ("m1:item", d // 2, d)), d)
        params = fmg.FmParams(rng.normal(), rng.normal(size=d), rng.normal(size=(d, K)))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        return layout, params, X, y

    def finite_difference(self, params, X, y, layout, cfg, eps=1e-5):
        table = fmg.FeatureTable.dense(X, y)

        def value(p):
            return fmg.mse_loss(p, table) + fmg.smooth_surplus(p, layout, cfg)

        fd_b = (
            value(fmg.FmParams(params.b + eps, params.w, params.V))
            - value(fmg.FmParams(params.b - eps, params.w, params.V))
        ) / (2 * eps)
        fd_w = np.zeros_like(params.w)
        for i in range(len(params.w)):
            w1, w2 = params.w.copy(), params.w.copy()
            w1[i] += eps
            w2[i] -= eps
            fd_w[i] = (
                value(fmg.FmParams(params.b, w1, params.V))
                - value(fmg.FmParams(params.b, w2, params.V))
            ) / (2 * eps)
        fd_v = np.zeros_like(params.V)
        for idx in np.ndindex(params.V.shape):
            V1, V2 = params.V.copy(), params.V.copy()
            V1[idx] += eps
            V2[idx] -= eps
            fd_v[idx] = (
                value(fmg.FmParams(params.b, params.w, V1))
                - value(fmg.FmParams(params.b, params.w, V2))
            ) / (2 * eps)
        return fd_b, fd_w, fd_v

    def assert_close(self, got, want, tol=1e-4):
        scale = max(np.max(np.abs(want)), 1e-6)
        assert np.max(np.abs(np.asarray(got) - np.asarray(want))) / scale <= tol

    def test_convex_mode_equals_plain_mse_gradient(self):
        rng = np.random.default_rng(0)
        layout, params, X, y = self.random_instance(rng)
        cfg = fmg.RegConfig(mode="convex", lam_w=0.7, lam_v=0.7)
        table = fmg.FeatureTable.dense(X, y)
        got = fmg.augmented_grad(params, table, layout, cfg)
        want = fmg.mse_grad(params, table)
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=0)

    def test_lsp_surplus_gradient_vanishes_at_zero(self):
        rng = np.random.default_rng(1)
        layout, _, X, y = self.random_instance(rng)
        params = fmg.FmParams(0.5, np.zeros(4), np.zeros((4, 2)))
        cfg = fmg.RegConfig(mode="lsp", lam_w=0.9, lam_v=0.9)
        table = fmg.FeatureTable.dense(X, y)
        got = fmg.augmented_grad(params, table, layout, cfg)
        want = fmg.mse_grad(params, table)
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=0)

    def test_matches_finite_differences_both_modes(self):
        rng = np.random.default_rng(2)
        for mode in ("convex", "lsp"):
            cfg = fmg.RegConfig(mode=mode, lam_w=0.4, lam_v=0.3)
            for _ in range(5):
                layout, params, X, y = self.random_instance(rng)
                got = fmg.augmented_grad(params, fmg.FeatureTable.dense(X, y), layout, cfg)
                want = self.finite_difference(params, X, y, layout, cfg)
                for g, w in zip(got, want):
                    self.assert_close(g, w)
            for _ in range(5):  # unequal widths, one all-zero group
                layout = uneven_layout()
                params = fmg.FmParams(rng.normal(), uneven_point(rng, 12), uneven_point(rng, (12, 2)))
                X, y = rng.normal(size=(3, 12)), rng.normal(size=3)
                table = fmg.FeatureTable.dense(X, y)
                with np.errstate(all="raise"):
                    got = fmg.augmented_grad(params, table, layout, cfg)
                for g, w in zip(got, self.finite_difference(params, X, y, layout, cfg)):
                    self.assert_close(g, w)
                _, mse_w, mse_v = fmg.mse_grad(params, table)
                assert np.all(got[1][1:4] == mse_w[1:4]) and np.all(got[2][1:4] == mse_v[1:4])


class TestProxGroup:
    def test_zero_threshold_is_identity(self):
        layout = one_group_layout()
        z = np.random.default_rng(0).normal(size=4)
        assert np.array_equal(fmg.prox_group(z, layout, np.zeros(2)), z)

    def test_hand_example(self):
        layout = one_group_layout()
        z = np.array([3.0, 4.0, 1.0, 1.0])
        out = fmg.prox_group(z, layout, np.array([2.0, 0.0]))
        assert np.allclose(out, [1.8, 2.4, 1.0, 1.0], atol=1e-12)

    def test_full_shrinkage_zeroes_block(self):
        layout = one_group_layout()
        z = np.array([3.0, 4.0, 1.0, 1.0])
        out = fmg.prox_group(z, layout, np.array([5.0, 10.0]))
        assert np.all(out == 0.0)

    def test_matrix_blocks_use_frobenius_norm(self):
        layout = one_group_layout()
        Z = np.ones((4, 3))
        out = fmg.prox_group(Z, layout, np.array([np.sqrt(6.0) / 2, 0.0]))
        assert np.allclose(out[:2], 0.5)
        assert np.allclose(out[2:], 1.0)

    def test_negative_threshold_rejected(self):
        layout = one_group_layout()
        with pytest.raises(ValueError, match=">= 0"):
            fmg.prox_group(np.ones(4), layout, np.array([-1.0, 0.0]))
        for thresholds in ([1.0, 1.0, 1.0], [1.0]):  # one threshold per group, none broadcast
            with pytest.raises(ValueError, match=f"{len(thresholds)} thresholds for 2 groups"):
                fmg.prox_group(np.ones(4), layout, np.array(thresholds))

    def test_agrees_with_numerical_minimizer(self):
        layout = one_group_layout()
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(scale=2.0, size=4)
            thresholds = rng.uniform(0.1, 1.5, size=2)
            got = fmg.prox_group(z, layout, thresholds)

            def objective(x):
                value = 0.5 * np.sum((x - z) ** 2)
                for tau, sl in zip(thresholds, layout.slices()):
                    value += tau * np.linalg.norm(x[sl])
                return value

            result = minimize(objective, z, method="Nelder-Mead",
                              options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
            if np.all([np.linalg.norm(got[sl]) > 1e-8 for sl in layout.slices()]):
                assert np.max(np.abs(got - result.x)) <= 1e-6
            assert objective(got) <= objective(result.x) + 1e-10

    @pytest.mark.filterwarnings("error")
    def test_prox_optimality_against_perturbations(self):
        rng = np.random.default_rng(5)
        # the 2-group layout, then ranks (1, 3, 2) with an all-zero group and a tau = 0 group, for w and V
        cases = [(one_group_layout(), 4)] + [(uneven_layout(), shape) for shape in (12, (12, 3))]
        for layout, shape in cases:
            for i in range(10):
                z = uneven_point(rng, shape) if layout.n_groups > 2 else rng.normal(size=shape)
                thresholds = rng.uniform(0.0, 2.0, size=layout.n_groups)
                if layout.n_groups > 2:  # tau = 0 on the all-zero group "b:user", then on "c:user"
                    thresholds[1 + i % 2] = 0.0
                out = fmg.prox_group(z, layout, thresholds)
                norms = [np.linalg.norm(z[sl]) for sl in layout.slices()]
                assert np.allclose(fmg.group_norms(z, layout), norms, rtol=1e-12, atol=0)
                assert np.allclose(out, prox_reference(z, layout, thresholds), rtol=1e-12, atol=0)
                for tau, norm, sl in zip(thresholds, norms, layout.slices()):
                    if tau == 0.0:
                        assert np.array_equal(out[sl], z[sl])
                    elif norm <= tau:
                        assert np.all(out[sl] == 0.0)

                def objective(x):
                    value = 0.5 * np.sum((x - z) ** 2)
                    for tau, sl in zip(thresholds, layout.slices()):
                        value += tau * np.linalg.norm(x[sl])
                    return value

                base = objective(out)
                for _ in range(100):
                    assert base <= objective(out + rng.normal(scale=1e-3, size=shape)) + 1e-12


class TestObjective:
    def test_zero_params_zero_labels(self):
        layout = one_group_layout()
        params = fmg.FmParams(0.0, np.zeros(4), np.zeros((4, 2)))
        table = fmg.FeatureTable.dense(np.zeros((3, 4)), np.zeros(3))
        cfg = fmg.RegConfig(mode="lsp", lam_w=1.0, lam_v=1.0)
        assert fmg.objective(params, table, layout, cfg) == 0.0

    def test_loss_plus_reg_example(self):
        layout = one_group_layout()
        params = fmg.FmParams(0.0, np.array([3.0, 4.0, 0.0, 0.0]), np.zeros((4, 2)))
        table = fmg.FeatureTable.dense(np.zeros((2, 4)), [1.0, 3.0])
        cfg = fmg.RegConfig(mode="convex", lam_w=1.0, lam_v=1.0)
        assert fmg.objective(params, table, layout, cfg) == pytest.approx(10.0)

    def test_direct_equals_reformulated(self):
        rng = np.random.default_rng(6)
        layout = fmg.GroupLayout(
            (("a:user", 0, 3), ("b:user", 3, 5), ("a:item", 5, 8), ("b:item", 8, 10)), 10
        )
        for mode in ("convex", "lsp"):
            cfg = fmg.RegConfig(mode=mode, lam_w=0.3, lam_v=0.6)
            for _ in range(10):
                params = fmg.FmParams(rng.normal(), rng.normal(size=10), rng.normal(size=(10, 3)))
                table = fmg.FeatureTable.dense(rng.normal(size=(4, 10)), rng.normal(size=4))
                h = fmg.objective(params, table, layout, cfg)
                h_bar = fmg.augmented_objective(params, table, layout, cfg)
                assert abs(h - h_bar) <= 1e-12 * max(1.0, abs(h))

    def test_group_permutation_invariance(self):
        rng = np.random.default_rng(7)
        ranks = [2, 3, 4]
        names = ["m1", "m2", "m3"]
        layout = fmg.GroupLayout.from_ranks(names, ranks)
        params = fmg.FmParams(rng.normal(), rng.normal(size=layout.d), rng.normal(size=(layout.d, 2)))
        X = rng.normal(size=(6, layout.d))
        y = rng.normal(size=6)
        table = fmg.FeatureTable.dense(X, y)

        perm = [2, 0, 1]
        layout_p = fmg.GroupLayout.from_ranks([names[i] for i in perm], [ranks[i] for i in perm])
        index = np.concatenate(
            [np.arange(*layout.groups[g][1:]) for g in perm]
            + [np.arange(*layout.groups[3 + g][1:]) for g in perm]
        )
        params_p = fmg.FmParams(params.b, params.w[index], params.V[index])
        table_p = fmg.FeatureTable.dense(X[:, index], y)

        for mode in ("convex", "lsp"):
            cfg = fmg.RegConfig(mode=mode, lam_w=0.4, lam_v=0.2)
            assert fmg.objective(params, table, layout, cfg) == pytest.approx(
                fmg.objective(params_p, table_p, layout_p, cfg), rel=1e-12
            )
            assert fmg.reg_value(params, layout, cfg) == pytest.approx(
                fmg.reg_value(params_p, layout_p, cfg), rel=1e-12
            )
        assert fmg.mse_loss(params, table) == pytest.approx(fmg.mse_loss(params_p, table_p), rel=1e-12)
        assert predict_one(params, X[0]) == pytest.approx(predict_one(params_p, X[0, index]), rel=1e-12)


class TestLayout:
    def test_validate_rejects_gaps(self):
        layout = fmg.GroupLayout((("a", 0, 2), ("b", 3, 4)), 4)
        with pytest.raises(ValueError, match="contiguous"):
            layout.validate()


class TestStandardizer:
    def test_train_columns_become_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=3.0, scale=2.0, size=(50, 4))
        scaler = fmg.fit_standardizer(dense_table(X))
        (Z,) = fmg.standardize([X], scaler)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_does_not_blow_up(self):
        X = np.ones((10, 2))
        (Z,) = fmg.standardize([X], fmg.fit_standardizer(dense_table(X)))
        assert np.all(np.isfinite(Z)) and np.allclose(Z, 0.0)

    def test_same_transform_applies_to_other_splits(self):
        rng = np.random.default_rng(1)
        X_train = rng.normal(size=(30, 3))
        X_test = rng.normal(size=(10, 3))
        scaler = fmg.fit_standardizer(dense_table(X_train))
        (Z,) = fmg.standardize([X_test], scaler)
        assert np.allclose(Z * scaler[1] + scaler[0], X_test, atol=1e-12)


PREDICTION = {"rating_range": [1.0, 5.0]}
SPLIT = {"seed": 3, "fractions": [0.8, 0.1, 0.1], "ratings_sha256": "0" * 64}


def saved_model(rng, layout, reg):
    params = fmg.FmParams(rng.normal(), rng.normal(size=layout.d), rng.normal(size=(layout.d, 4)))
    features = (rng.normal(size=(5, layout.d // 2)), rng.normal(size=(3, layout.d // 2)))
    return fmg.SavedModel(params, layout, reg, PREDICTION, features,
                          ["u0", "u1", "üser 2", "u3", "u4"], ["i0", "i1", "i2"], SPLIT)


class TestModelPersistence:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        layout = fmg.GroupLayout.from_ranks(["m1", "m2"], [3, 2])
        cfg = fmg.RegConfig(mode="lsp", lam_w=0.123456789, lam_v=0.05)
        model = saved_model(rng, layout, cfg)
        path = tmp_path / "model.npz"
        fmg.save_model(path, model)
        loaded = fmg.load_model(path)
        params, params2 = model.params, loaded.params
        assert params2.b == params.b
        assert np.array_equal(params2.w, params.w) and np.array_equal(params2.V, params.V)
        assert loaded.layout == layout
        assert loaded.reg == cfg
        assert loaded.prediction == PREDICTION and loaded.split == SPLIT
        for stored, given in zip(loaded.features, model.features):
            assert stored.dtype == given.dtype and np.array_equal(stored, given)
        assert loaded.user_ids.tolist() == model.user_ids and loaded.item_ids.tolist() == model.item_ids

    CONVEX = {"mode": "convex", "lam_w": 0.0, "lam_v": 0.0}
    LEGACY_LAYOUTS = {  # files from before the format number: no "format", these entries dropped or set
        "no format number": {},
        "no entity features": {"drop": ("user_features", "item_features")},
        "no prediction settings": {"drop": ("prediction",)},
        "clip switch": {"prediction": {"clip_predictions": True, "rating_range": [1.0, 5.0]}},
        "no split": {"drop": ("split",)},
        "no ratings digest": {"split": {"seed": 3, "fractions": [0.8, 0.1, 0.1]}},
        "null group weights": {"reg": {**CONVEX, "eta_w": None, "eta_v": None}},
        "group weights": {"reg": {**CONVEX, "eta_w": [1.0, 2.0], "eta_v": None}},
    }

    @pytest.mark.parametrize("case", [*LEGACY_LAYOUTS, "newer format"])
    def test_file_of_another_format_refused(self, tmp_path, capsys, case):
        # a file of another format may lack what scoring needs (its features, split or clip
        # range) or mean another model by the same entries (per-group weights): one check on
        # the format number refuses it before any entry is read
        from hinfuse import cli

        path = tmp_path / "model.npz"
        layout = fmg.GroupLayout.from_ranks(["m1"], [2])
        fmg.save_model(path, saved_model(np.random.default_rng(1), layout, fmg.RegConfig(mode="convex")))
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(str(arrays["header"]))
        assert header["format"] == fmg.FORMAT
        if case == "newer format":
            header["format"] = found = fmg.FORMAT + 1
        else:
            del header["format"]
            found = "none"
            changes = dict(self.LEGACY_LAYOUTS[case])
            for key in changes.pop("drop", ()):
                header.pop(key, None)
                arrays.pop(key, None)
            header.update(changes)
        np.savez(path, **{**arrays, "header": json.dumps(header)})
        with pytest.raises(ValueError) as err:
            fmg.load_model(path)
        message = str(err.value)
        assert message.startswith(str(path)) and message.endswith("train the model again")
        assert f"format {found}," in message and f"reads format {fmg.FORMAT};" in message
        assert cli.main(["report", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"[config] {message}\n"

    @pytest.mark.parametrize("lacking", ["split", "header"])
    def test_file_lacking_an_entry_refused(self, tmp_path, capsys, lacking):
        # a damaged format-1 file, without a header entry or without an array, is refused with
        # one message, also where the command (report) never reads what is missing
        from hinfuse import cli

        path = tmp_path / "model.npz"
        layout = fmg.GroupLayout.from_ranks(["m1"], [2])
        fmg.save_model(path, saved_model(np.random.default_rng(1), layout, fmg.RegConfig(mode="convex")))
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(str(arrays["header"]))
        header.pop(lacking, None)
        arrays.pop(lacking, None)
        if lacking != "header":
            arrays["header"] = json.dumps(header)
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            fmg.load_model(path)
        message = str(err.value)
        assert message.startswith(f"{path} lacks an entry (") and lacking in message
        assert message.endswith("train the model again")
        assert cli.main(["report", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"[config] {message}\n"

    TAMPERINGS = {  # the header entry or array to change, and the change
        "last group dropped": ("groups", lambda groups: groups[:-1]),
        "groups overlap": ("groups", lambda groups: [groups[0], [groups[1][0], 2, groups[1][2]], *groups[2:]]),
        "w short": ("w", lambda w: w[:-1]),
        "V short": ("V", lambda V: V[:-1]),
        "user features narrow": ("user_features", lambda block: block[:, :-1]),
        "item features narrow": ("item_features", lambda block: block[:, :-1]),
    }

    @pytest.mark.parametrize("tampering", list(TAMPERINGS))
    def test_layout_that_does_not_cover_the_model_rejected(self, tmp_path, capsys, tampering):
        # a layout that leaves out or overlaps columns would attribute weights to the wrong
        # groups in report, or fail deep inside it; such a file is refused at load
        from hinfuse import cli

        path = tmp_path / "model.npz"
        layout = fmg.GroupLayout.from_ranks(["m1", "m2"], [3, 2])
        fmg.save_model(path, saved_model(np.random.default_rng(1), layout, fmg.RegConfig(mode="convex")))
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(str(arrays["header"]))
        field, change = self.TAMPERINGS[tampering]
        if field in header:
            header[field] = change(header[field])
        else:
            arrays[field] = change(arrays[field])
        np.savez(path, **{**arrays, "header": json.dumps(header)})
        with pytest.raises(ValueError) as err:
            fmg.load_model(path)
        assert str(err.value).startswith(str(path))
        assert cli.main(["report", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"[config] {path}")
