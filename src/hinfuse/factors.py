"""Low-rank latent features from sparse similarity matrices.

Two routes produce per-metagraph user/item factors:

* :func:`factorize_mf` fits U Bᵀ to the observed entries with Frobenius
  regularization by full-batch gradient descent with backtracking.
* :func:`factorize_nnr` solves the nuclear-norm-regularized completion
  problem with an accelerated proximal-gradient loop whose prox step is
  singular value thresholding; the iterate is kept in factored SVD form
  and split as U = P Σ^{1/2}, B = Q Σ^{1/2} on exit.

Both engines evaluate on one fixed observed pattern, held by an
:class:`ObservedMatrix` in one of two forms, each built once, on first use:

* The CSR pair: the CSR matrix and its transpose at the observed positions.
  An evaluation gathers factor rows with ``np.take`` in chunks of a fixed
  size (:meth:`ObservedMatrix.entries`), so it holds no nnz × rank array; a
  gradient writes the per-entry residuals into the data arrays of the pair
  (:meth:`ObservedMatrix.scatter`) and multiplies by it.  No sparse matrix
  is constructed and no COO conversion, index sort or CSC transpose runs
  inside the loops.  The accumulation order matches scipy's canonical CSR,
  so without duplicate positions the factors are bit-identical to building
  the matrix from COO on every call.
* The dense form (:attr:`ObservedMatrix.dense`): the (m, n) array of the
  observed values, 0 elsewhere, and the observed mask.  It exists where the
  positions are unique and its 9 bytes per position (8 for the value, 1 for
  the mask) total fewer than the CSR pair would hold:
  2 · nnz · (8 + s) + (m + n + 2) · s bytes, with s the index itemsize, so
  with int32 indices above a density of about 3/8.  An MF trial point is
  then one ``U @ Bᵀ`` product into a residual buffer that the fit allocates
  once, the masked residual and the objective; an accepted step is the two
  products ``E @ B`` and ``Eᵀ @ U``, all through BLAS.

MF runs on the dense form wherever it exists and on the CSR pair elsewhere
(sparse patterns, repeated positions).  NNR always runs on the CSR pair:
its randomized SVD amplifies the rounding differences between the two.

A user or item with no observed entry gets an exact zero factor row: both
objectives reduce to the regularizer there, which 0 minimises, and both
engines set those rows on exit (descent only approaches the zero, and
NNR's QR leaves round-off there).

No evaluation repeats work whose result the loop already holds.  MF's
backtracking makes one residual pass (product or gather, residuals,
objective) per trial point and forms the two gradients only at an accepted
point, from that point's residuals: two products per accepted step.  An
NNR iterate (:class:`NnrState`) keeps its entries at the observed positions
once its objective has computed them, and the next proximal steps reuse
them for the current and the previous iterate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .metagraph import atomic_write


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


def _dense_is_smaller(shape, nnz):
    """Whether an (m, n) pattern with ``nnz`` entries takes fewer bytes dense than as a CSR pair.

    Dense: 9 bytes per position, a float64 value and a bool mask entry.  CSR pair: the matrix
    and its transpose, each nnz float64 values and nnz indices plus its row pointers.
    """
    m, n = shape
    index_bytes = np.dtype(sp.get_index_dtype(maxval=max(m, n, nnz))).itemsize
    return 9 * m * n < 2 * nnz * (8 + index_bytes) + (m + n + 2) * index_bytes


_GATHER = 2**15  # factor elements per gather buffer of ObservedMatrix.entries; 2**17 doubled NNR's page faults


@dataclass
class ObservedMatrix:
    """Entries of a partially observed matrix; positions define the mask.

    The positions are fixed once constructed.  The CSR pair behind
    :meth:`scatter` and the :attr:`dense` form are each built on first use
    and kept; an MF fit uses the dense form where it exists and never
    builds the pair, and an NNR fit builds only the pair.
    """

    shape: tuple
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @functools.cached_property
    def _scattered(self):
        """(entry order, CSR matrix) of the matrix, then of its transpose."""
        m, n = self.shape
        index_dtype = sp.get_index_dtype(maxval=max(m, n, len(self.row)))
        scattered = []
        for major, minor, shape in ((self.row, self.col, (m, n)), (self.col, self.row, (n, m))):
            order, indices, indptr = _csr_layout(major, minor, shape[0], index_dtype)
            matrix = sp.csr_matrix((np.zeros(len(order)), indices, indptr), shape=shape)
            scattered.append((order, matrix))
        return scattered

    @functools.cached_property
    def dense(self):
        """``(values, mask)``: the (m, n) array of the observed values, 0 at unobserved
        positions, and the observed mask; ``None`` where a position repeats or where this form
        would not take fewer bytes than the CSR pair (see :func:`_dense_is_smaller`)."""
        if not _dense_is_smaller(self.shape, self.n_observed):
            return None
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.row, self.col] = True
        if np.count_nonzero(mask) != self.n_observed:  # a position repeats
            return None
        values = np.zeros(self.shape)
        values[self.row, self.col] = self.val
        return values, mask

    def entries(self, U, B):
        """(U Bᵀ)_ij at every observed position, in O(nnz * rank).

        Factor rows are gathered in chunks of at most _GATHER elements a side, so the result is
        the only nnz-length array; each entry is one rank-length dot product, whatever the chunk.
        """
        nnz, rank = self.n_observed, U.shape[1]
        rows = max(1, min(nnz, _GATHER // rank))
        left, right, out = np.empty((rows, rank)), np.empty((rows, rank)), np.empty(nnz)
        for s in range(0, nnz, rows):
            e = min(s + rows, nnz)
            np.take(U, self.row[s:e], axis=0, out=left[:e - s], mode="clip")  # "raise" would buffer
            np.take(B, self.col[s:e], axis=0, out=right[:e - s], mode="clip")
            np.einsum("ij,ij->i", left[:e - s], right[:e - s], out=out[s:e])
        return out

    def scatter(self, values):
        """The CSR matrix holding ``values`` at the observed positions, and its transpose as CSR.

        Both are the matrices built on the first call, with ``values``
        written into their data arrays: the pair is valid until the next
        ``scatter`` on this matrix, which overwrites it.
        """
        for order, matrix in self._scattered:
            np.take(values, order, out=matrix.data, mode="clip")  # mode "raise" would buffer the output
        return tuple(matrix for _, matrix in self._scattered)

    @classmethod
    def from_csr(cls, R):
        """The CSR matrix's stored entries, in stored order; ``col`` and ``val`` are its arrays."""
        row = np.repeat(np.arange(R.shape[0], dtype=R.indices.dtype), np.diff(R.indptr))
        return cls(R.shape, row, R.indices, np.asarray(R.data, dtype=np.float64))

    @classmethod
    def from_dense(cls, X, mask=None):
        X = np.asarray(X, dtype=np.float64)
        mask = np.ones(X.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        row, col = np.nonzero(mask)
        return cls(X.shape, row, col, X[row, col])

    @property
    def n_observed(self):
        return len(self.val)


def _zero_unobserved(obs, U, B):
    """C-ordered copies of U and B whose rows for users and items ``obs`` never observes are 0."""
    U, B = np.array(U, order="C"), np.array(B, order="C")
    U[np.bincount(obs.row, minlength=obs.shape[0]) == 0] = 0.0
    B[np.bincount(obs.col, minlength=obs.shape[1]) == 0] = 0.0
    return U, B


@dataclass
class FactorPair:
    """Per-metagraph user and item latent factors, U (m, F) and B (n, F)."""

    U: np.ndarray
    B: np.ndarray
    metagraph: str = ""
    method: str = "mf"
    objective_history: list = field(default_factory=list, repr=False)

    @property
    def rank(self):
        return self.U.shape[1]

    @property
    def n_users(self):
        return self.U.shape[0]

    @property
    def n_items(self):
        return self.B.shape[0]


def _mf_residual(U, B, obs, mu, work=None):
    """Residuals U Bᵀ - R at the observed positions, and the objective value.

    On the dense form the residuals are an (m, n) array with 0 at the unobserved positions,
    written into ``work``, an (m, n) float array, when given; on the CSR pair, one per entry.
    """
    if obs.dense is None:
        err = obs.entries(U, B) - obs.val
    else:
        values, mask = obs.dense
        err = np.matmul(U, B.T, out=work)
        np.multiply(err, mask, out=err)
        err -= values
    flat = err.reshape(-1)
    value = 0.5 * float(flat @ flat) + 0.5 * mu * (float(np.sum(U * U)) + float(np.sum(B * B)))
    return err, value


def _mf_grad(U, B, obs, mu, err):
    """Gradients with respect to U and B, given the residuals ``err`` at (U, B)."""
    E, Et = (err, err.T) if obs.dense is not None else obs.scatter(err)
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
    residual pass; the gradients are formed only at accepted points.  The
    evaluations run on the observed matrix's dense form where it exists, and
    on its CSR pair otherwise.
    """
    m, n = obs.shape
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if rank > min(m, n) / 2:
        raise ValueError(f"rank {rank} exceeds min(m, n)/2 = {min(m, n) / 2}")
    if obs.n_observed == 0:
        raise ValueError("no observed entries to factor")

    rng = np.random.default_rng(seed)
    scale = 0.1 / np.sqrt(rank)
    U = rng.normal(0.0, scale, (m, rank))
    B = rng.normal(0.0, scale, (n, rank))
    # reused by every trial: a fresh buffer per trial costs page faults whenever the
    # allocator hands it fresh pages, which depends on what the process freed earlier
    work = np.empty(obs.shape) if obs.dense is not None else None

    err, value = _mf_residual(U, B, obs, mu, work)
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
            err, value_new = _mf_residual(U_new, B_new, obs, mu, work)
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

    return FactorPair(*_zero_unobserved(obs, U, B), metagraph=name, method="mf", objective_history=history)


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


def _svt_of_operator(op, m, n, tau, rank_guess, rng):
    """SVT applied to an implicit matrix; retries with a larger subspace if needed."""
    k = max(rank_guess, 5)
    P, s, Q = _partial_svd(op, m, n, k, rng)
    while len(s) and s[-1] > tau and k < min(m, n):
        k = min(2 * k, min(m, n))  # threshold not reached inside the subspace
        P, s, Q = _partial_svd(op, m, n, k, rng)
    keep = s > tau
    return P[:, keep], (s - tau)[keep], Q[:, keep]


def factorize_nnr(
    obs, mu, seed=0, tol=1e-5, max_iters=300, max_rank=None, name="", return_state=False,
):
    """Nuclear-norm-regularized completion by accelerated proximal gradient.

    The objective 0.5 * ||P_Omega(X - R)||_F^2 + mu * ||X||_* is nonincreasing
    across accepted iterates (momentum restarts on increase).  Returns a
    :class:`FactorPair` with U Bᵀ equal to the final iterate outside the
    unobserved rows (``return_state=True`` also hands back the factored
    iterate); ``max_rank`` keeps that many leading components, the iterate's
    largest singular values.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if obs.n_observed == 0:
        raise ValueError("no observed entries to factor")
    m, n = obs.shape
    rng = np.random.default_rng(seed)

    empty = (np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    state = NnrState(*empty)
    prev = NnrState(*empty)

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
        return _svt_of_operator(op, m, n, mu, guess, rng)

    state.objective_history.append(objective(state))
    a_prev, a = 0.0, 1.0
    for it in range(max_iters):
        beta = (a_prev - 1.0) / a
        P, s, Q = prox_from([(1.0 + beta, state), (-beta, prev)])
        candidate = NnrState(P, s, Q, state.objective_history)
        value = objective(candidate)
        if value > state.objective_history[-1] + 1e-12:
            # restart: plain proximal step from the current iterate is a descent step
            P, s, Q = prox_from([(1.0, state)])
            candidate = NnrState(P, s, Q, state.objective_history)
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

    half = np.sqrt(state.sigma[:max_rank])
    U, B = _zero_unobserved(obs, state.P[:, :max_rank] * half, state.Q[:, :max_rank] * half)
    pair = FactorPair(U, B, metagraph=name, method="nnr", objective_history=state.objective_history)
    return (pair, state) if return_state else pair


def save_factor_pair(path, pair):
    """Persist both factor sides and the metagraph name and method tag to exactly ``path``
    (see :func:`hinfuse.metagraph.atomic_write`)."""
    with atomic_write(path) as fh:
        np.savez(fh, U=pair.U, B=pair.B, metagraph=pair.metagraph, method=pair.method)


def load_factor_pair(path):
    """The :class:`FactorPair` written by :func:`save_factor_pair`."""
    with np.load(path, allow_pickle=False) as f:
        return FactorPair(f["U"], f["B"], metagraph=str(f["metagraph"]), method=str(f["method"]))
