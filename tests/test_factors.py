import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hinfuse import factors


def observed_full(X):
    return factors.ObservedMatrix.from_dense(np.asarray(X, dtype=float))


@pytest.fixture
def csr_arm(monkeypatch):
    """Observed matrices made after this fixture never get a dense form: MF runs on the CSR pair."""
    monkeypatch.setattr(factors, "_dense_is_smaller", lambda shape, nnz: False)


def on_arm(arm, request, obs_factory):
    """The observed matrix ``obs_factory()`` makes, evaluated on ``arm`` ("dense" or "csr")."""
    if arm == "csr":
        request.getfixturevalue("csr_arm")
    obs = obs_factory()
    assert (obs.dense is not None) == (arm == "dense")
    return obs


class TestFactorizeMf:
    def test_rank1_exact_instance(self):
        R = np.array([[2.0, 4.0], [1.0, 2.0]])
        pair = factors.factorize_mf(observed_full(R), 1, mu=1e-6, seed=0)
        rel = np.linalg.norm(pair.U @ pair.B.T - R) / np.linalg.norm(R)
        assert rel <= 1e-2

    def test_all_zero_observations_shrink_to_zero(self):
        obs = factors.ObservedMatrix(
            (4, 4), np.array([0, 1, 2]), np.array([1, 2, 3]), np.zeros(3)
        )
        pair = factors.factorize_mf(obs, 2, mu=0.5, seed=1, max_iters=5000, tol=1e-12)
        assert np.linalg.norm(pair.U) <= 1e-3 and np.linalg.norm(pair.B) <= 1e-3

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            factors.factorize_mf(observed_full(np.eye(4)), 0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="mu must be >= 0, got -1"):
            factors.factorize_mf(observed_full(np.eye(4)), 1, mu=-1.0)

    def test_rank_above_half_min_dim_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            factors.factorize_mf(observed_full(np.eye(4)), 3)

    def test_no_observations_rejected(self):
        obs = factors.ObservedMatrix((3, 3), np.zeros(0, int), np.zeros(0, int), np.zeros(0))
        with pytest.raises(ValueError, match="no observed"):
            factors.factorize_mf(obs, 1)

    def test_objective_monotone_and_below_init(self):
        rng = np.random.default_rng(0)
        obs = factors.ObservedMatrix.from_dense(
            rng.normal(size=(12, 9)), rng.random((12, 9)) < 0.6
        )
        pair = factors.factorize_mf(obs, 3, mu=0.1, seed=0)
        hist = np.array(pair.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)
        assert hist[-1] <= hist[0]

    def test_gradient_matches_finite_differences(self, request):
        self.check_finite_differences("csr", request)

    def test_gradient_matches_finite_differences_on_the_dense_form(self, request):
        self.check_finite_differences("dense", request)

    @staticmethod
    def check_finite_differences(arm, request):
        rng = np.random.default_rng(7)
        X, mask = rng.normal(size=(6, 5)), rng.random((6, 5)) < 0.7
        obs = on_arm(arm, request, lambda: factors.ObservedMatrix.from_dense(X, mask))
        U = rng.normal(size=(6, 2))
        B = rng.normal(size=(5, 2))
        mu = 0.3
        _, gu, gb = factors.mf_value_and_grad(U, B, obs, mu)
        eps = 1e-6

        def value(U_, B_):
            return factors.mf_value_and_grad(U_, B_, obs, mu)[0]

        for M, grad in ((U, gu), (B, gb)):
            for idx in np.ndindex(M.shape):
                bump = np.zeros_like(M)
                bump[idx] = eps
                if M is U:
                    fd = (value(U + bump, B) - value(U - bump, B)) / (2 * eps)
                else:
                    fd = (value(U, B + bump) - value(U, B - bump)) / (2 * eps)
                assert abs(fd - grad[idx]) / max(abs(fd), 1e-8) <= 1e-5


class TestUnobservedRows:
    """A user or item with no observed entry gets an exact zero factor row, in C order."""

    @staticmethod
    def with_empty_row_and_column(seed=3, m=30, n=24):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < 0.5
        mask[4, :] = False
        mask[:, 7] = False
        return factors.ObservedMatrix.from_dense(rng.normal(size=(m, n)), mask)

    FITS = {
        "mf": lambda obs: factors.factorize_mf(obs, 3, mu=0.1, seed=0),
        "nnr": lambda obs: factors.factorize_nnr(obs, mu=0.5, seed=0),
    }

    @pytest.mark.parametrize("method", list(FITS))
    def test_unobserved_rows_are_exact_zeros(self, method):
        obs = self.with_empty_row_and_column()
        pair = self.FITS[method](obs)
        assert np.all(pair.U[4] == 0.0) and np.all(pair.B[7] == 0.0)
        assert np.all(np.delete(pair.U, 4, axis=0).any(axis=1))
        assert np.all(np.delete(pair.B, 7, axis=0).any(axis=1))
        assert pair.U.flags.c_contiguous and pair.B.flags.c_contiguous


def mf_value_and_grad_coo(U, B, obs, mu):
    """Reference: the MF objective with fancy-index gathers and a CSR built from COO per call."""
    pred = np.einsum("ij,ij->i", U[obs.row], B[obs.col])
    err = pred - obs.val
    value = 0.5 * float(err @ err) + 0.5 * mu * (float(np.sum(U * U)) + float(np.sum(B * B)))
    E = sp.csr_matrix((err, (obs.row, obs.col)), shape=obs.shape)
    grad_u = E @ B + mu * U
    grad_b = E.T @ U + mu * B
    return value, grad_u, grad_b


def unsorted_similarity(seed, m=40, k=60, n=30):
    """A product of two random sparse matrices: a CSR whose column indices are unsorted."""
    rng = np.random.default_rng(seed)
    left = sp.random(m, k, density=0.2, random_state=rng, format="csr")
    right = sp.random(k, n, density=0.2, random_state=rng, format="csr")
    S = left @ right
    assert not S.has_sorted_indices
    return factors.ObservedMatrix.from_csr(S)


class TestFromSimilarity:
    """An observed matrix shares the similarity's column indices and values, in stored order."""

    def test_shares_the_csr_arrays_and_matches_its_coo(self):
        rng = np.random.default_rng(2)
        S = sp.random(40, 60, density=0.2, random_state=rng, format="csr") @ sp.random(
            60, 30, density=0.2, random_state=rng, format="csr")
        assert not S.has_sorted_indices
        obs = factors.ObservedMatrix.from_csr(S)
        assert np.shares_memory(obs.val, S.data) and np.shares_memory(obs.col, S.indices)
        coo = S.tocoo()
        want = factors.ObservedMatrix(coo.shape, coo.row.astype(np.int64), coo.col.astype(np.int64),
                                      coo.data.astype(np.float64))
        U, B = rng.normal(size=(40, 4)), rng.normal(size=(30, 4))
        assert np.array_equal(obs.entries(U, B), want.entries(U, B))
        values = rng.normal(size=obs.n_observed)
        for got, expected in zip(obs.scatter(values), want.scatter(values)):
            assert np.array_equal(got.indices, expected.indices)
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.data, expected.data)


class TestFixedPattern:
    """The fixed-pattern evaluation reproduces the per-call COO construction."""

    @staticmethod
    def factors_for(obs, seed, rank=4):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(obs.shape[0], rank)), rng.normal(size=(obs.shape[1], rank))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unsorted_csr_matches_coo_oracle_exactly(self, seed, request):
        obs = on_arm("csr", request, lambda: unsorted_similarity(seed))
        U, B = self.factors_for(obs, seed)
        value, gu, gb = factors.mf_value_and_grad(U, B, obs, 0.3)
        want_value, want_gu, want_gb = mf_value_and_grad_coo(U, B, obs, 0.3)
        assert value == want_value
        assert np.array_equal(gu, want_gu) and np.array_equal(gb, want_gb)

    def test_from_dense_matches_coo_oracle_exactly(self, request):
        obs = on_arm("csr", request, lambda: masked_dense(4))
        U, B = self.factors_for(obs, 4, rank=3)
        value, gu, gb = factors.mf_value_and_grad(U, B, obs, 0.1)
        want_value, want_gu, want_gb = mf_value_and_grad_coo(U, B, obs, 0.1)
        assert value == want_value
        assert np.array_equal(gu, want_gu) and np.array_equal(gb, want_gb)

    @staticmethod
    def assert_close_to_coo_oracle(obs, U, B, mu):
        got = factors.mf_value_and_grad(U, B, obs, mu)
        want = mf_value_and_grad_coo(U, B, obs, mu)
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        for g, w in zip(got[1:], want[1:]):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)

    def test_duplicate_positions_match_coo_oracle(self):
        # duplicates stay separate entries here but are summed (in sort order) by
        # scipy's COO conversion, so only the rounding may differ
        obs = duplicate_positions(5)
        assert obs.dense is None
        self.assert_close_to_coo_oracle(obs, *self.factors_for(obs, 5), 0.2)

    @pytest.mark.parametrize("case", ["unsorted-0", "unsorted-1", "masked-dense"])
    def test_dense_form_matches_coo_oracle(self, case):
        # BLAS sums in its own order, so only the rounding may differ
        obs = masked_dense(4) if case == "masked-dense" else unsorted_similarity(int(case[-1]))
        assert obs.dense is not None
        self.assert_close_to_coo_oracle(obs, *self.factors_for(obs, 4), 0.3)

    def test_rmatmat_with_precomputed_transpose_equals_transpose_product(self):
        obs = unsorted_similarity(6)
        S, St = obs.scatter(obs.val)
        G = np.random.default_rng(6).normal(size=(obs.shape[0], 7))
        op = factors._LowRankPlusSparse([], S, St)
        assert np.array_equal(op.rmatmat(G), S.T @ G)


def mf_loop_reference(obs, rank, mu, seed=0, tol=1e-5, max_iters=2000):
    """The MF loop as written before trial points became value-only: both gradients at every
    trial.  Returns U, B, the objective history and the number of evaluations."""
    m, n = obs.shape
    rng = np.random.default_rng(seed)
    scale = 0.1 / np.sqrt(rank)
    U = rng.normal(0.0, scale, (m, rank))
    B = rng.normal(0.0, scale, (n, rank))
    value, grad_u, grad_b = factors.mf_value_and_grad(U, B, obs, mu)
    history, evals = [value], 1
    step = 0.1
    for _ in range(max_iters):
        grad_sq = float(np.sum(grad_u * grad_u) + np.sum(grad_b * grad_b))
        if grad_sq == 0.0:
            break
        accepted = False
        for _ in range(40):
            U_new = U - step * grad_u
            B_new = B - step * grad_b
            value_new, gu_new, gb_new = factors.mf_value_and_grad(U_new, B_new, obs, mu)
            evals += 1
            if value_new <= value - 1e-4 * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        U, B = U_new, B_new
        relative = (value - value_new) / max(value, 1e-12)
        value, grad_u, grad_b = value_new, gu_new, gb_new
        history.append(value)
        step *= 1.3
        if relative < tol:
            break
    return U, B, history, evals


def nnr_loop_reference(obs, mu, seed=0, tol=1e-5, max_iters=300):
    """The NNR loop as written before iterates kept their entries: each proximal step gathers
    the entries of both iterates again.  Returns (P, sigma, Q) and the objective history."""
    m, n = obs.shape
    rng = np.random.default_rng(seed)

    def entries(P, s, Q):
        return obs.entries(P * s, Q) if len(s) else np.zeros(obs.n_observed)

    def objective(P, s, Q):
        err = entries(P, s, Q) - obs.val
        return 0.5 * float(err @ err) + mu * float(np.sum(s))

    def prox_from(terms):
        coeffs = np.zeros(obs.n_observed)
        for c, P, s, Q in terms:
            if len(s):
                coeffs += c * obs.entries(P * s, Q)
        states = [(c, factors.NnrState(P, s, Q)) for c, P, s, Q in terms]
        op = factors._LowRankPlusSparse(states, *obs.scatter(obs.val - coeffs))
        return factors._svt_of_operator(op, m, n, mu, max(len(terms[0][2]) + 5, 10), rng)

    state = prev = (np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    history = [objective(*state)]
    a_prev, a = 0.0, 1.0
    for _ in range(max_iters):
        beta = (a_prev - 1.0) / a
        candidate = prox_from([(1.0 + beta, *state), (-beta, *prev)])
        value = objective(*candidate)
        if value > history[-1] + 1e-12:
            candidate = prox_from([(1.0, *state)])
            value = objective(*candidate)
            a_prev, a = 0.0, 1.0
        prev, state = state, candidate
        last = history[-1]
        history.append(value)
        a_prev, a = a, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * a * a))
        if abs(last - value) / max(abs(last), 1e-12) < tol:
            break
    return state, history


def nnr_dense_reference(obs, mu, tol=1e-5, max_iters=300):
    """The NNR loop on dense iterates: each proximal step applies ``svt`` to the densified
    prox point Y - P_Omega(Y - R).  Returns the final iterate and the objective history."""
    R, observed = np.zeros(obs.shape), np.zeros(obs.shape, dtype=bool)
    R[obs.row, obs.col] = obs.val
    observed[obs.row, obs.col] = True

    def prox(Y):
        return factors.svt(np.where(observed, R, Y), mu)

    def objective(X):
        err = X[obs.row, obs.col] - obs.val
        return 0.5 * float(err @ err) + mu * float(np.sum(np.linalg.svd(X, compute_uv=False)))

    state = prev = np.zeros(obs.shape)
    history = [objective(state)]
    a_prev, a = 0.0, 1.0
    for _ in range(max_iters):
        beta = (a_prev - 1.0) / a
        candidate = prox((1.0 + beta) * state - beta * prev)
        value = objective(candidate)
        if value > history[-1] + 1e-12:
            candidate = prox(state)
            value = objective(candidate)
            a_prev, a = 0.0, 1.0
        prev, state = state, candidate
        last = history[-1]
        history.append(value)
        a_prev, a = a, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * a * a))
        if abs(last - value) / max(abs(last), 1e-12) < tol:
            break
    return state, history


def masked_dense(seed, m=25, n=18, density=0.4):
    rng = np.random.default_rng(seed)
    return factors.ObservedMatrix.from_dense(rng.normal(size=(m, n)), rng.random((m, n)) < density)


def duplicate_positions(seed, m=30, n=20, n_obs=900):
    rng = np.random.default_rng(seed)
    return factors.ObservedMatrix(
        (m, n), rng.integers(0, m, n_obs), rng.integers(0, n, n_obs), rng.normal(size=n_obs)
    )


def counting(monkeypatch, name, events):
    """Wrap ``ObservedMatrix.<name>`` so that each call appends ``name`` to ``events``."""
    original = getattr(factors.ObservedMatrix, name)

    def wrapper(self, *args):
        events.append(name)
        return original(self, *args)

    monkeypatch.setattr(factors.ObservedMatrix, name, wrapper)


class TestNoRepeatedWork:
    """The loops skip work whose result they already hold and produce the same bits as before."""

    MF_CASES = {
        "unsorted-csr": (lambda: unsorted_similarity(3), 4, 0.3),
        "masked-dense": (lambda: masked_dense(4), 3, 0.1),
        "duplicates": (lambda: duplicate_positions(5), 4, 0.2),
    }

    @pytest.mark.parametrize("case", list(MF_CASES))
    def test_mf_equals_gradient_at_every_trial_loop(self, case, request):
        self.check_loop_equivalence(case, "csr", request)

    @pytest.mark.parametrize("case", ["unsorted-csr", "masked-dense"])
    def test_mf_dense_form_equals_gradient_at_every_trial_loop(self, case, request):
        self.check_loop_equivalence(case, "dense", request)

    def check_loop_equivalence(self, case, arm, request):
        make, rank, mu = self.MF_CASES[case]
        obs = on_arm(arm, request, make)
        U, B, history, evals = mf_loop_reference(obs, rank, mu, seed=2)
        assert evals > len(history)  # some trial points were rejected
        pair = factors.factorize_mf(obs, rank, mu, seed=2)
        assert np.array_equal(pair.U, U) and np.array_equal(pair.B, B)
        assert pair.objective_history == history

    def test_mf_scatters_once_per_accepted_iterate(self, monkeypatch, csr_arm):
        obs = unsorted_similarity(3)
        evals = mf_loop_reference(obs, 4, 0.3, seed=2)[3]
        events = []
        counting(monkeypatch, "scatter", events)
        pair = factors.factorize_mf(obs, 4, 0.3, seed=2)
        assert len(events) == len(pair.objective_history) < evals

    def test_mf_dense_trials_write_one_residual_buffer(self, monkeypatch):
        obs = unsorted_similarity(3)
        assert obs.dense is not None
        seen = []
        residual = factors._mf_residual

        def recording(U, B, obs, mu, work=None):
            err, value = residual(U, B, obs, mu, work)
            seen.append((work, err))
            return err, value

        monkeypatch.setattr(factors, "_mf_residual", recording)
        events = []
        counting(monkeypatch, "entries", events)
        counting(monkeypatch, "scatter", events)
        pair = factors.factorize_mf(obs, 4, 0.3, seed=2)
        assert len(seen) > len(pair.objective_history)  # some trial points were rejected
        buffer = seen[0][0]
        assert buffer.shape == obs.shape
        assert all(work is buffer and err is buffer for work, err in seen)
        assert events == []  # the CSR pair is never used

    def test_nnr_equals_entries_at_every_step_loop(self):
        obs = unsorted_similarity(8, m=50, k=70, n=45)
        (P, sigma, Q), history = nnr_loop_reference(obs, 0.3)
        _, state = factors.factorize_nnr(obs, 0.3, return_state=True)
        assert len(history) > 3
        assert np.array_equal(state.P, P) and np.array_equal(state.sigma, sigma)
        assert np.array_equal(state.Q, Q)
        assert state.objective_history == history

    def test_nnr_gathers_entries_once_per_objective(self, monkeypatch):
        # each proximal step scatters once; the entries of a candidate are gathered by its
        # objective, right after, and never again inside the next proximal step
        obs = masked_dense(9, m=40, n=30, density=0.5)
        events = []
        counting(monkeypatch, "entries", events)
        counting(monkeypatch, "scatter", events)
        pair = factors.factorize_nnr(obs, 0.1)
        assert len(pair.objective_history) > 3
        assert events == ["scatter", "entries"] * (len(events) // 2)

    def test_scatter_allocates_no_entry_buffer(self):
        obs = duplicate_positions(6, m=300, n=200, n_obs=200_000)
        values = np.random.default_rng(6).normal(size=obs.n_observed)
        first = [matrix.data.copy() for matrix in obs.scatter(values)]  # builds the CSR pair
        tracemalloc.start()
        try:
            again = obs.scatter(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < obs.n_observed  # below 1 byte per entry; a buffered take copies 8
        assert all(np.array_equal(a, m.data) for a, m in zip(first, again))

    def test_second_scatter_overwrites_the_first(self):
        obs = unsorted_similarity(7)
        first, first_t = obs.scatter(obs.val)
        values = np.arange(obs.n_observed, dtype=float)
        obs.scatter(values)
        want = sp.csr_matrix((values, (obs.row, obs.col)), shape=obs.shape).toarray()
        assert np.array_equal(first.toarray(), want) and np.array_equal(first_t.toarray(), want.T)


def int32_pattern(seed, nnz, m=300, n=200):
    """Positions with int32 indices, as a similarity's CSR holds them."""
    rng = np.random.default_rng(seed)
    row, col = rng.integers(0, m, nnz).astype(np.int32), rng.integers(0, n, nnz).astype(np.int32)
    return factors.ObservedMatrix((m, n), row, col, rng.normal(size=nnz))


class TestChunkedGather:
    """``entries`` gathers factor rows in chunks of at most ``_GATHER`` elements a side: the same
    bits as one gather of every entry's rows, and no nnz × rank array."""

    @pytest.mark.parametrize("rank", [1, 5, 110])
    @pytest.mark.parametrize("size", ["none", "one", "below a chunk", "3 chunks", "3 chunks and 7"])
    def test_equals_one_whole_gather(self, rank, size):
        rows = factors._GATHER // rank
        nnz = {"none": 0, "one": 1, "below a chunk": rows // 2,
               "3 chunks": 3 * rows, "3 chunks and 7": 3 * rows + 7}[size]
        obs = int32_pattern(rank, nnz)
        rng = np.random.default_rng(nnz)
        U, B = rng.normal(size=(obs.shape[0], rank)), rng.normal(size=(obs.shape[1], rank))
        want = np.einsum("ij,ij->i", U[obs.row], B[obs.col])
        assert np.array_equal(obs.entries(U, B), want)

    @pytest.mark.parametrize("rank", [5, 110])
    def test_peak_is_the_output_and_two_chunks(self, rank):
        obs = int32_pattern(0, 200_000)
        rng = np.random.default_rng(1)
        U, B = rng.normal(size=(obs.shape[0], rank)), rng.normal(size=(obs.shape[1], rank))
        first = obs.entries(U, B)
        tracemalloc.start()
        try:
            again = obs.entries(U, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = factors._GATHER // rank
        # the result, the two chunk buffers and one chunk of indices converted to intp by np.take
        assert peak < 8 * obs.n_observed + 2 * 8 * rows * rank + 8 * rows + 4096
        assert peak < 8 * obs.n_observed * rank  # one nnz × rank array would not fit
        assert np.array_equal(first, again)

    def test_mf_fit_on_the_csr_pair_holds_no_entry_by_rank_array(self, csr_arm):
        obs, rank = int32_pattern(2, 200_000), 20
        obs.scatter(obs.val)  # builds the CSR pair before measuring
        tracemalloc.start()
        try:
            pair = factors.factorize_mf(obs, rank, 0.1, seed=0, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pair.objective_history) > 1
        # the residuals at the current and at a trial point, one more entry vector, the chunk
        # buffers and the factors: far below one nnz × rank gather
        assert peak < 3 * 8 * obs.n_observed + 2**20 < obs.n_observed * rank * 8


class TestDenseForm:
    """Where MF runs on the dense form: unique positions taking fewer bytes dense than as a CSR pair."""

    def test_holds_the_observed_values_and_mask(self):
        obs = masked_dense(4)
        values, mask = obs.dense
        want = np.zeros(obs.shape)
        want[obs.row, obs.col] = obs.val
        assert values.shape == mask.shape == obs.shape
        assert np.array_equal(values, want) and np.count_nonzero(mask) == obs.n_observed
        assert mask[obs.row, obs.col].all()

    def test_repeated_positions_take_the_csr_arm(self):
        obs = duplicate_positions(5)  # 900 entries on 600 positions: dense would be smaller
        assert factors._dense_is_smaller(obs.shape, obs.n_observed)
        assert obs.dense is None

    def test_byte_rule_boundary(self):
        # 40 x 30 with int32 indices: dense 9 * 1200 = 10800 bytes, the CSR pair
        # 2 * nnz * 12 + 72 * 4, equal at nnz = 438
        m, n = 40, 30
        position = np.random.default_rng(1).permutation(m * n)
        for nnz, dense in ((438, False), (439, True)):
            row, col = np.divmod(position[:nnz], n)
            obs = factors.ObservedMatrix((m, n), row, col, np.ones(nnz))
            assert (obs.dense is not None) == dense

    def test_nnr_never_builds_the_dense_form(self, monkeypatch):
        obs = masked_dense(9, m=40, n=30, density=0.5)
        rule = factors._dense_is_smaller
        calls = []
        monkeypatch.setattr(factors, "_dense_is_smaller", lambda *a: calls.append(a) or rule(*a))
        factors.factorize_nnr(obs, 0.1)
        assert calls == []
        assert obs.dense is not None  # the form MF would have used

    def test_mf_fit_allocates_no_entry_buffer_and_no_csr_pair(self, monkeypatch):
        rng = np.random.default_rng(3)
        m, n, rank = 600, 400, 10
        row, col = np.divmod(np.arange(m * n), n)
        obs = factors.ObservedMatrix((m, n), row, col, rng.normal(size=m * n))
        layouts = []
        csr_layout = factors._csr_layout
        monkeypatch.setattr(factors, "_csr_layout", lambda *a: layouts.append(a) or csr_layout(*a))
        tracemalloc.start()
        try:
            pair = factors.factorize_mf(obs, rank, 0.1, seed=0, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pair.objective_history) > 1 and layouts == []
        csr_pair = 2 * obs.n_observed * (8 + 4)
        # the dense form (9 bytes per position) and the residual buffer (8), plus 1 MiB for the
        # factors, gradients and ufunc buffers: below the CSR pair and one gather buffer
        assert peak < 17 * m * n + 2**20 < min(csr_pair, obs.n_observed * rank * 8)


def svt_oracle(X, tau):
    """Shrinkage built from symmetric eigendecompositions, independent of svt's SVD."""
    X = np.asarray(X, dtype=float)
    gram = X.T @ X
    evals, V = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, V = evals[order], V[:, order]
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    keep = sigma > 1e-12
    U = (X @ V[:, keep]) / sigma[keep]
    shrunk = np.maximum(sigma[keep] - tau, 0.0)
    return (U * shrunk) @ V[:, keep].T


class TestSvt:
    def test_zero_threshold_is_identity(self):
        X = np.random.default_rng(0).normal(size=(4, 3))
        assert np.allclose(factors.svt(X, 0.0), X, atol=1e-12)

    def test_full_shrinkage_gives_zero(self):
        X = np.random.default_rng(1).normal(size=(4, 3))
        sigma_max = np.linalg.svd(X, compute_uv=False)[0]
        assert np.allclose(factors.svt(X, sigma_max), 0.0, atol=1e-10)

    def test_diagonal_example(self):
        out = factors.svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            factors.svt(np.eye(2), -1.0)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            X = rng.normal(size=(3, 3))
            tau = rng.uniform(0.0, 2.0)
            assert np.linalg.norm(factors.svt(X, tau) - svt_oracle(X, tau)) <= 1e-8

    def test_prox_optimality_against_perturbations(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(3, 3))
        tau = 0.7
        Z = factors.svt(X, tau)

        def prox_obj(M):
            return 0.5 * np.sum((M - X) ** 2) + tau * np.linalg.svd(M, compute_uv=False).sum()

        base = prox_obj(Z)
        for _ in range(200):
            assert base <= prox_obj(Z + rng.normal(scale=1e-3, size=Z.shape)) + 1e-12


class TestFactorizeNnr:
    def planted(self, seed=3, m=5, n=5, rank=2):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))

    def test_planted_rank2_recovery(self):
        X = self.planted()
        pair = factors.factorize_nnr(observed_full(X), mu=0.01, seed=0)
        rel = np.linalg.norm(pair.U @ pair.B.T - X) / np.linalg.norm(X)
        assert rel <= 1e-2
        assert pair.rank == 2

    def test_over_regularization_reports_advice(self):
        X = self.planted()
        big = 10 * np.linalg.svd(X, compute_uv=False)[0]
        with pytest.raises(factors.OverRegularizedError, match="reduce mu"):
            factors.factorize_nnr(observed_full(X), mu=big)

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError, match="mu"):
            factors.factorize_nnr(observed_full(np.eye(3)), mu=0.0)

    def test_factor_split_identity(self):
        rng = np.random.default_rng(11)
        X = self.planted(seed=11, m=20, n=15, rank=4)
        obs = factors.ObservedMatrix.from_dense(X, rng.random(X.shape) < 0.6)
        pair, state = factors.factorize_nnr(obs, mu=0.05, seed=0, return_state=True)
        iterate = (state.P * state.sigma) @ state.Q.T
        err = np.linalg.norm(pair.U @ pair.B.T - iterate)
        assert err <= 1e-10 * np.linalg.norm(iterate)

    def test_objective_history_nonincreasing(self):
        rng = np.random.default_rng(2)
        X = self.planted(seed=2, m=30, n=25, rank=3)
        obs = factors.ObservedMatrix.from_dense(X, rng.random(X.shape) < 0.5)
        pair = factors.factorize_nnr(obs, mu=0.1, seed=0)
        hist = np.array(pair.objective_history)
        assert np.all(np.diff(hist) <= 1e-9)

    def test_sigma_sorted_positive(self):
        X = self.planted(seed=4, m=15, n=12, rank=3)
        _, state = factors.factorize_nnr(observed_full(X), mu=0.02, seed=0, return_state=True)
        assert np.all(state.sigma > 0)
        assert np.all(np.diff(state.sigma) <= 1e-12)

    def test_rank_cap_truncates_emitted_features(self):
        X = self.planted(seed=6, m=20, n=20, rank=5)
        pair = factors.factorize_nnr(observed_full(X), mu=1e-3, seed=0, max_rank=2)
        assert pair.rank == 2 and pair.U.shape[1] == 2

    @staticmethod
    def against_dense_reference(X, mu, monkeypatch):
        """Fit by the randomized route and check it against svt of the densified prox point,
        step by step; returns the factored iterate and the operator of every partial SVD."""
        obs = factors.ObservedMatrix.from_dense(X, np.random.default_rng(13).random(X.shape) < 0.7)
        operators = []
        partial_svd = factors._partial_svd

        def recording(op, m, n, k, rng):
            operators.append(op)
            return partial_svd(op, m, n, k, rng)

        monkeypatch.setattr(factors, "_partial_svd", recording)
        _, state = factors.factorize_nnr(obs, mu=mu, seed=0, return_state=True)
        want, history = nnr_dense_reference(obs, mu)
        got = (state.P * state.sigma) @ state.Q.T
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-6
        assert np.allclose(state.objective_history, history, rtol=1e-9, atol=0.0)
        return state, operators

    def test_partial_svd_path_matches_dense_path(self, monkeypatch):
        X = self.planted(seed=13, m=60, n=40, rank=3)
        state, _ = self.against_dense_reference(X, 0.05, monkeypatch)
        assert state.rank == 3

    def test_partial_svd_path_matches_dense_path_when_the_subspace_doubles(self, monkeypatch):
        # more than 10 components stay above the threshold, past the first subspace
        X = np.random.default_rng(14).normal(size=(60, 40))
        state, operators = self.against_dense_reference(X, 2.0, monkeypatch)
        assert state.rank > 10
        assert any(a is b for a, b in zip(operators, operators[1:]))  # a redo on the same operator

    def test_nnr_rank_at_least_mf_rank_on_planted_suite(self):
        # mirrors the observation that nuclear-norm recovery keeps a higher rank
        rng = np.random.default_rng(8)
        X = self.planted(seed=8, m=40, n=30, rank=4)
        obs = factors.ObservedMatrix.from_dense(X, rng.random(X.shape) < 0.5)
        nnr = factors.factorize_nnr(obs, mu=0.05, seed=0)
        mf = factors.factorize_mf(obs, 4, mu=0.01, seed=0)
        mf_rank = np.sum(np.linalg.svd(mf.U @ mf.B.T, compute_uv=False) > 1e-3)
        assert nnr.rank >= mf_rank


class TestPerIterationCost:
    """The CSR arm's cost per evaluation is linear in the entries.  These observed matrices
    have no dense form: 40,000 entries on 120,000 positions are below the byte rule, and
    80,000 random positions repeat."""

    def test_cost_scales_linearly_in_observations(self):
        rng = np.random.default_rng(0)
        m, n, rank = 400, 300, 10
        U, B = rng.normal(size=(m, rank)), rng.normal(size=(n, rank))

        def observed(n_obs):
            row = rng.integers(0, m, n_obs)
            col = rng.integers(0, n, n_obs)
            return factors.ObservedMatrix((m, n), row, col, rng.normal(size=n_obs))

        factors.mf_value_and_grad(U, B, observed(2000), 0.1)  # warm up allocations
        runs = {n_obs: (observed(n_obs), []) for n_obs in (40000, 80000)}
        assert all(obs.dense is None for obs, _ in runs.values())
        # this thread's CPU time, sizes interleaved, best sample: another process on the cores adds
        # no time and slows neither size more, and no idle BLAS thread's spin-wait is counted
        for _ in range(15):
            for obs, samples in runs.values():
                start = time.thread_time()
                factors.mf_value_and_grad(U, B, obs, 0.1)
                samples.append(time.thread_time() - start)
        single, double = (min(samples) for _, samples in runs.values())
        assert double / single <= 3.0


class TestPersistence:
    def test_factor_sides_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pair = factors.FactorPair(rng.normal(size=(5, 2)), rng.normal(size=(4, 2)), metagraph="M1", method="mf")
        path = tmp_path / "pair.npz"
        factors.save_factor_pair(path, pair)
        again = factors.load_factor_pair(path)
        assert np.array_equal(again.U, pair.U) and np.array_equal(again.B, pair.B)
        assert again.metagraph == "M1" and again.method == "mf" and again.rank == 2
        with np.load(path, allow_pickle=False) as f:
            assert sorted(f.files) == ["B", "U", "metagraph", "method"]
