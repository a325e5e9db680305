"""Low-rank latent features from sparse similarity matrices.

Two routes produce per-metagraph user/item factors:

* :func:`factorize_mf` fits U Bᵀ to the observed entries with Frobenius
  regularization by full-batch gradient descent with backtracking.
* :func:`factorize_nnr` solves the nuclear-norm-regularized completion
  problem with an accelerated proximal-gradient loop whose prox step is
  singular value thresholding; the iterate is kept in factored SVD form
  and split as U = P Σ^{1/2}, B = Q Σ^{1/2} on exit.

Both engines evaluate on one fixed observed pattern.  An
:class:`ObservedMatrix` builds, once, the CSR matrix and its transpose at
the observed positions.  An evaluation gathers factor rows with ``np.take``
(:meth:`ObservedMatrix.entries`), into two buffers that an MF fit allocates
once; a gradient writes the per-entry residuals into the data arrays of
those two matrices (:meth:`ObservedMatrix.scatter`): no sparse matrix is
constructed and no COO conversion, index sort or CSC transpose runs inside
the loops.  The accumulation order matches scipy's canonical CSR, so
without duplicate positions the factors are bit-identical to building the
matrix from COO on every call.

No evaluation repeats work whose result the loop already holds.  MF's
backtracking makes one residual pass (gather, residuals, objective) per
trial point and forms the two gradients only at an accepted point, from
that point's residuals: one scatter and two sparse products per accepted
step.  An NNR iterate (:class:`NnrState`) keeps its entries at the
observed positions once its objective has computed them, and the next
proximal steps reuse them for the current and the previous iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class OverRegularizedError(ValueError):
    """Shrinkage removed every component; nothing left to factor."""


def _csr_layout(major, minor, n_major, index_dtype):
    """Entry order, minor indices and pointers of a CSR matrix with entries at (major, minor).

    Entries are sorted by minor index within each major index, as in scipy's
    canonical CSR; the sort is stable, so duplicate positions keep their
    input order and stay separate entries.
    """
    order = np.lexsort((minor, major))
    indptr = np.zeros(n_major + 1, dtype=index_dtype)
    np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
    return order, minor[order].astype(index_dtype), indptr


@dataclass
class ObservedMatrix:
    """Entries of a partially observed matrix; positions define the mask.

    The positions are fixed once constructed: the CSR matrix and its
    transpose at those positions are built here, once, and every
    :meth:`scatter` writes new values into their data arrays.
    """

    shape: tuple
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        m, n = self.shape
        index_dtype = sp.get_index_dtype(maxval=max(m, n, len(self.row)))
        self._scattered = []  # (entry order, CSR matrix) of the matrix, then of its transpose
        for major, minor, shape in ((self.row, self.col, (m, n)), (self.col, self.row, (n, m))):
            order, indices, indptr = _csr_layout(major, minor, shape[0], index_dtype)
            matrix = sp.csr_matrix((np.zeros(len(order)), indices, indptr), shape=shape)
            self._scattered.append((order, matrix))

    def entries(self, U, B, gathered=None):
        """(U Bᵀ)_ij at every observed position, in O(nnz * rank).

        ``gathered``, two float arrays of shape (nnz, rank), receives the
        gathered factor rows, so a loop that evaluates many points can
        allocate them once.
        """
        if gathered is None:
            return np.einsum("ij,ij->i", np.take(U, self.row, axis=0), np.take(B, self.col, axis=0))
        left, right = gathered
        np.take(U, self.row, axis=0, out=left, mode="clip")  # mode "raise" would buffer the output
        np.take(B, self.col, axis=0, out=right, mode="clip")
        return np.einsum("ij,ij->i", left, right)

    def scatter(self, values):
        """The CSR matrix holding ``values`` at the observed positions, and its transpose as CSR.

        Both are the matrices built at construction, with ``values`` written
        into their data arrays: the pair is valid until the next ``scatter``
        on this matrix, which overwrites it.
        """
        for order, matrix in self._scattered:
            np.take(values, order, out=matrix.data)
        return tuple(matrix for _, matrix in self._scattered)

    @classmethod
    def from_similarity(cls, sim):
        coo = sim.matrix.tocoo()
        return cls(coo.shape, coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data.astype(np.float64))

    @classmethod
    def from_dense(cls, X, mask=None):
        X = np.asarray(X, dtype=np.float64)
        mask = np.ones(X.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        row, col = np.nonzero(mask)
        return cls(X.shape, row, col, X[row, col])

    @property
    def n_observed(self):
        return len(self.val)

    def user_observed(self):
        return np.bincount(self.row, minlength=self.shape[0]) > 0

    def item_observed(self):
        return np.bincount(self.col, minlength=self.shape[1]) > 0


@dataclass
class FactorPair:
    """Per-metagraph user and item latent factors, U (m, F) and B (n, F)."""

    U: np.ndarray
    B: np.ndarray
    rank: int
    metagraph: str = ""
    method: str = "mf"
    user_observed: np.ndarray = None
    item_observed: np.ndarray = None
    objective_history: list = field(default_factory=list, repr=False)

    @property
    def n_users(self):
        return self.U.shape[0]

    @property
    def n_items(self):
        return self.B.shape[0]

    def truncate(self, max_rank):
        """Keep the first ``max_rank`` factor columns (NNR emits them by decreasing weight)."""
        if max_rank is None or self.rank <= max_rank:
            return self
        return FactorPair(
            self.U[:, :max_rank].copy(),
            self.B[:, :max_rank].copy(),
            max_rank,
            self.metagraph,
            self.method,
            self.user_observed,
            self.item_observed,
            self.objective_history,
        )


def _mf_residual(U, B, obs, mu, gathered=None):
    """Residuals (U Bᵀ)_ij - R_ij at the observed positions, and the objective value."""
    err = obs.entries(U, B, gathered) - obs.val
    value = 0.5 * float(err @ err) + 0.5 * mu * (float(np.sum(U * U)) + float(np.sum(B * B)))
    return err, value


def _mf_grad(U, B, obs, mu, err):
    """Gradients with respect to U and B, given the residuals ``err`` at (U, B)."""
    E, Et = obs.scatter(err)
    return E @ B + mu * U, Et @ U + mu * B


def mf_value_and_grad(U, B, obs, mu):
    """Objective and gradients of the regularized factorization problem.

    value = 0.5 * sum over observed (i,j) of ((U Bᵀ)_ij - R_ij)^2
            + 0.5 * mu * (||U||_F^2 + ||B||_F^2)
    """
    err, value = _mf_residual(U, B, obs, mu)
    return (value, *_mf_grad(U, B, obs, mu, err))


def factorize_mf(obs, rank, mu=0.01, seed=0, tol=1e-5, max_iters=2000, name=""):
    """Factor an observed matrix as U Bᵀ by gradient descent with backtracking.

    Accepted steps never increase the objective; iteration stops once the
    relative objective change drops below ``tol``.  A trial point costs one
    residual pass; the gradients are formed only at accepted points.
    """
    m, n = obs.shape
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > min(m, n) / 2:
        raise ValueError(f"rank {rank} exceeds min(m, n)/2 = {min(m, n) / 2}")
    if obs.n_observed == 0:
        raise ValueError("no observed entries to factor")

    rng = np.random.default_rng(seed)
    scale = 0.1 / np.sqrt(rank)
    U = rng.normal(0.0, scale, (m, rank))
    B = rng.normal(0.0, scale, (n, rank))
    # reused by every trial: a fresh nnz·rank array per trial costs page faults whenever
    # the allocator hands it fresh pages, which depends on what the process freed earlier
    gathered = (np.empty((obs.n_observed, rank)), np.empty((obs.n_observed, rank)))

    err, value = _mf_residual(U, B, obs, mu, gathered)
    grad_u, grad_b = _mf_grad(U, B, obs, mu, err)
    history = [value]
    step = 0.1
    for _ in range(max_iters):
        grad_sq = float(np.sum(grad_u * grad_u) + np.sum(grad_b * grad_b))
        if grad_sq == 0.0:
            break
        accepted = False
        for _ in range(40):
            U_new = U - step * grad_u
            B_new = B - step * grad_b
            err, value_new = _mf_residual(U_new, B_new, obs, mu, gathered)
            if value_new <= value - 1e-4 * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        U, B = U_new, B_new
        relative = (value - value_new) / max(value, 1e-12)
        value = value_new
        grad_u, grad_b = _mf_grad(U, B, obs, mu, err)
        history.append(value)
        step *= 1.3
        if relative < tol:
            break

    return FactorPair(
        U, B, rank, metagraph=name, method="mf",
        user_observed=obs.user_observed(), item_observed=obs.item_observed(),
        objective_history=history,
    )


def svt(X, tau):
    """Singular value thresholding: shrink each singular value by ``tau``.

    Returns the unique minimizer of 0.5 * ||Z - X||_F^2 + tau * ||Z||_*.
    """
    if tau < 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    P, s, Qt = np.linalg.svd(np.asarray(X, dtype=np.float64), full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (P * shrunk) @ Qt


@dataclass
class NnrState:
    """Factored iterate X = P diag(sigma) Qᵀ of the completion solver."""

    P: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    mu: float
    objective_history: list = field(default_factory=list)
    _entries: tuple = field(default=None, init=False, repr=False, compare=False)  # (obs, values)

    @property
    def rank(self):
        return len(self.sigma)

    def entries(self, obs):
        """Values of the iterate at the observed positions of ``obs``, in O(nnz * rank).

        Computed on the first call for ``obs`` and kept: the iterate does not
        change, so later calls return the same (read-only) array.
        """
        if self._entries is None or self._entries[0] is not obs:
            values = np.zeros(obs.n_observed) if self.rank == 0 else obs.entries(self.P * self.sigma, self.Q)
            self._entries = (obs, values)
        return self._entries[1]


class _LowRankPlusSparse:
    """Implicit  sum_k c_k P_k diag(s_k) Q_kᵀ  +  S  with matmat/rmatmat products.

    ``terms`` are ``(c_k, NnrState)`` pairs; ``St`` is Sᵀ in CSR form, as
    :meth:`ObservedMatrix.scatter` returns it.
    """

    def __init__(self, terms, S, St):
        self.terms = [(c, st.P, st.sigma, st.Q) for c, st in terms if st.rank > 0 and c != 0.0]
        self.S = S
        self.St = St

    def matmat(self, G):
        out = self.S @ G
        for c, P, s, Q in self.terms:
            out += c * (P @ (s[:, None] * (Q.T @ G)))
        return np.asarray(out)

    def rmatmat(self, G):
        out = self.St @ G
        for c, P, s, Q in self.terms:
            out += c * (Q @ (s[:, None] * (P.T @ G)))
        return np.asarray(out)

    def dense(self):
        out = np.asarray(self.S.todense())
        for c, P, s, Q in self.terms:
            out += c * ((P * s) @ Q.T)
        return out


def _partial_svd(op, m, n, k, rng, oversample=10, n_power=3):
    """Top-k singular triplets by randomized subspace iteration."""
    k = min(k, min(m, n))
    width = min(k + oversample, min(m, n))
    G = rng.standard_normal((n, width))
    Y = op.matmat(G)
    Q, _ = np.linalg.qr(Y)
    for _ in range(n_power):
        Z, _ = np.linalg.qr(op.rmatmat(Q))
        Q, _ = np.linalg.qr(op.matmat(Z))
    B = op.rmatmat(Q).T  # (width, n)
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    return (Q @ Ub)[:, :k], s[:k], Vt[:k].T


def _svt_of_operator(op, m, n, tau, rank_guess, rng, dense_cutoff):
    """SVT applied to an implicit matrix; retries with a larger subspace if needed."""
    if min(m, n) <= dense_cutoff:
        P, s, Qt = np.linalg.svd(op.dense(), full_matrices=False)
        Q = Qt.T
    else:
        k = max(rank_guess, 5)
        while True:
            P, s, Q = _partial_svd(op, m, n, k, rng)
            if len(s) and s[-1] > tau and k < min(m, n):
                k = min(2 * k, min(m, n))  # threshold not reached inside the subspace
                continue
            break
    keep = s > tau
    return P[:, keep], (s - tau)[keep], Q[:, keep]


def factorize_nnr(
    obs, mu, seed=0, tol=1e-5, max_iters=300, max_rank=None, dense_cutoff=200, name="",
    return_state=False,
):
    """Nuclear-norm-regularized completion by accelerated proximal gradient.

    The objective 0.5 * ||P_Omega(X - R)||_F^2 + mu * ||X||_* is nonincreasing
    across accepted iterates (momentum restarts on increase).  Returns a
    :class:`FactorPair` with U Bᵀ exactly equal to the final iterate
    (``return_state=True`` also hands back the factored iterate); pass
    ``max_rank`` to truncate the emitted features afterwards.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if obs.n_observed == 0:
        raise ValueError("no observed entries to factor")
    m, n = obs.shape
    rng = np.random.default_rng(seed)

    empty = (np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    state = NnrState(*empty, mu=mu)
    prev = NnrState(*empty, mu=mu)

    def objective(st):
        err = st.entries(obs) - obs.val
        return 0.5 * float(err @ err) + mu * float(np.sum(st.sigma))

    def prox_from(terms):
        """One proximal step at Y = sum of c * iterate over the ``(c, NnrState)`` pairs ``terms``
        (step size 1, Lipschitz 1); each iterate's entries come from its objective evaluation."""
        coeffs = np.zeros(len(obs.val))
        for c, st in terms:
            if st.rank:
                coeffs += c * st.entries(obs)
        # Z = Y - P_Omega(Y - R)  =  Y + sparse correction at the observed entries
        op = _LowRankPlusSparse(terms, *obs.scatter(obs.val - coeffs))
        guess = max(terms[0][1].rank + 5, 10)
        return _svt_of_operator(op, m, n, mu, guess, rng, dense_cutoff)

    state.objective_history.append(objective(state))
    a_prev, a = 0.0, 1.0
    for it in range(max_iters):
        beta = (a_prev - 1.0) / a
        P, s, Q = prox_from([(1.0 + beta, state), (-beta, prev)])
        candidate = NnrState(P, s, Q, mu, state.objective_history)
        value = objective(candidate)
        if value > state.objective_history[-1] + 1e-12:
            # restart: plain proximal step from the current iterate is a descent step
            P, s, Q = prox_from([(1.0, state)])
            candidate = NnrState(P, s, Q, mu, state.objective_history)
            value = objective(candidate)
            a_prev, a = 0.0, 1.0
        if it == 0 and candidate.rank == 0:
            raise OverRegularizedError(
                f"mu={mu} shrank every singular value to zero on the first step; reduce mu"
            )
        prev, state = state, candidate
        last = state.objective_history[-1]
        state.objective_history.append(value)
        a_prev, a = a, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * a * a))
        if abs(last - value) / max(abs(last), 1e-12) < tol:
            break

    half = np.sqrt(state.sigma)
    pair = FactorPair(
        state.P * half, state.Q * half, state.rank, metagraph=name, method="nnr",
        user_observed=obs.user_observed(), item_observed=obs.item_observed(),
        objective_history=state.objective_history,
    )
    pair = pair.truncate(max_rank)
    return (pair, state) if return_state else pair


def save_factor_side(path, pair, side):
    """Persist one factor side ('user' or 'item') with its header fields."""
    matrix = pair.U if side == "user" else pair.B
    observed = pair.user_observed if side == "user" else pair.item_observed
    np.savez(
        path,
        matrix=matrix,
        observed=observed if observed is not None else np.ones(matrix.shape[0], dtype=bool),
        rank=pair.rank,
        metagraph=pair.metagraph,
        method=pair.method,
        side=side,
    )


def load_factor_pair(user_path, item_path):
    u = np.load(user_path, allow_pickle=False)
    b = np.load(item_path, allow_pickle=False)
    if str(u["metagraph"]) != str(b["metagraph"]) or int(u["rank"]) != int(b["rank"]):
        raise ValueError("factor sides disagree on metagraph or rank")
    return FactorPair(
        u["matrix"], b["matrix"], int(u["rank"]),
        metagraph=str(u["metagraph"]), method=str(u["method"]),
        user_observed=u["observed"], item_observed=b["observed"],
    )
