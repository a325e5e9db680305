"""Factorization machine with group-structured sparsity over metagraph features.

Feature vectors concatenate the user blocks of every metagraph followed by
the item blocks, so the d = 2 * sum(F_l) coordinates split into 2L contiguous
groups, and every group operation is one reduction over them, not a loop.
The regularizer penalizes each group's norm, with one weight lambda_w for
every group of w and one weight lambda_V for every group of V, either
directly (convex group lasso) or through the log-sum penalty
kappa(t) = log(1 + t).  The nonconvex penalty is optimized through its
smooth-plus-convex split: the smooth surplus g = lambda * (kappa(norm) - norm)
joins the loss, and the convex part stays in the proximal step (both
penalties have slope 1 at zero).

Samples are never gathered into an (N, d) matrix.  A pass multiplies each
block's entity rows once and gathers the products by index; the gradient
sums the residual-weighted products per entity through a sparse
(entities x N) index that each table builds once, on its first gradient.
"""

from __future__ import annotations

import itertools
import json
import zipfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FORMAT = 1  # the model-file layout this version writes and reads; a layout change bumps it


@dataclass(frozen=True)
class GroupLayout:
    """Contiguous disjoint index ranges covering [0, d), one per group."""

    groups: tuple  # (label, start, stop)
    d: int

    @classmethod
    def from_ranks(cls, names, ranks):
        """User groups for every metagraph first, then item groups, per the feature order."""
        groups = []
        offset = 0
        for side in ("user", "item"):
            for name, rank in zip(names, ranks):
                groups.append((f"{name}:{side}", offset, offset + rank))
                offset += rank
        return cls(tuple(groups), offset)

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def labels(self):
        return [label for label, _, _ in self.groups]

    def slices(self):
        return [slice(start, stop) for _, start, stop in self.groups]

    @cached_property
    def _offsets(self):
        """Every group's start, then d: the bounds of the group reductions, made once per layout."""
        return np.array([start for _, start, _ in self.groups] + [self.d])

    def validate(self):
        pos = 0
        for label, start, stop in self.groups:
            if start != pos or stop <= start:
                raise ValueError(f"group {label!r} [{start}, {stop}) breaks the contiguous cover")
            pos = stop
        if pos != self.d:
            raise ValueError(f"groups cover [0, {pos}) but d = {self.d}")
        if self.n_groups % 2:
            raise ValueError("expected 2L groups (user and item blocks per metagraph)")


@dataclass
class FeatureTable:
    """Labels and ``(features (E_b, d_b), index (N,))`` blocks covering the layout's columns in
    order: sample row r is the concatenation of ``features[index[r]]`` over the blocks, an (N, d)
    matrix never built (the relational FM of Rendle, VLDB 2013).  Each block's squared features
    and column slice are derived once, when the table is made; the per-entity sums the gradient
    takes go through an index built on first use (:meth:`entity_sums`)."""

    y: np.ndarray
    blocks: tuple
    squares: tuple = field(init=False, repr=False)
    columns: list = field(init=False, repr=False)

    def __post_init__(self):
        self.squares = tuple(features * features for features, _ in self.blocks)
        stops = list(itertools.accumulate(features.shape[1] for features, _ in self.blocks))
        self.columns = [slice(stop - f.shape[1], stop) for (f, _), stop in zip(self.blocks, stops)]

    @classmethod
    def dense(cls, X, y):
        """A dense (N, d) sample matrix as the single block ``(X, arange(N))``: each row is its own
        entity, so its per-entity sums need no index."""
        table = cls(np.asarray(y, dtype=float), ((np.asarray(X, dtype=float), np.arange(len(X))),))
        table._summers = (None,)
        return table

    def __len__(self):
        return len(self.y)

    @property
    def d(self):
        return sum(features.shape[1] for features, _ in self.blocks)

    def rows(self, idx):
        """The rows ``idx`` (a mini-batch; repeats allowed) gathered into one dense block."""
        return FeatureTable.dense(np.hstack([f[index[idx]] for f, index in self.blocks]), self.y[idx])

    @cached_property
    def _summers(self):
        """Per block, the (E_b, N) CSR matrix with a slot at (index[r], r), rows ascending within
        each entity: its column indices are the sample rows of its slots, in order.  A
        :meth:`dense` table holds None instead."""
        import scipy.sparse as sp

        summers = []
        for features, index in self.blocks:
            n = len(index)  # column r of the CSC form holds the one slot at (index[r], r)
            summers.append(sp.csc_matrix((np.zeros(n), index, np.arange(n + 1)), shape=(len(features), n)).tocsr())
        return summers

    def entity_sums(self, weights, rows):
        """Per block, the (E_b, width) sums of ``weights[r] * rows[r]`` over each entity's sample
        rows r, added from 0.0 in ascending r, as ``np.bincount`` adds: entities with no row get
        zeros.  The index is built on the first call; each call writes ``weights`` into its data."""
        for S in self._summers:
            if S is None:
                yield rows * weights[:, None] + 0.0  # 0.0 + x, as a sum of one term
            else:
                np.take(weights, S.indices, out=S.data)
                yield S @ rows


@dataclass
class FmParams:
    """Global bias, first-order weights (d,) and second-order factors (d, K)."""

    b: float
    w: np.ndarray
    V: np.ndarray

    @property
    def d(self):
        return len(self.w)

    @property
    def K(self):
        return self.V.shape[1]


@dataclass
class RegConfig:
    """Group regularization: the penalty ``mode`` and its weights, ``lam_w`` on every group of
    w and ``lam_v`` on every group of V."""

    mode: str = "convex"  # convex | lsp
    lam_w: float = 0.0
    lam_v: float = 0.0

    def __post_init__(self):
        if self.mode not in ("convex", "lsp"):
            raise ValueError(f"mode must be 'convex' or 'lsp', got {self.mode!r}")
        if self.lam_w < 0 or self.lam_v < 0:
            raise ValueError("regularization weights must be >= 0")


def factor_blocks(pairs):
    """``((user_features (m, d/2), item_features (n, d/2)), layout)``: every metagraph's factors
    side by side, in layout order (the engines give unobserved users and items zero rows)."""
    if not pairs:
        raise ValueError("need at least one factor pair")
    m, n = pairs[0].n_users, pairs[0].n_items
    for pair in pairs:
        if (pair.n_users, pair.n_items) != (m, n):
            raise ValueError(
                f"factor pair {pair.metagraph!r} has shape ({pair.n_users}, {pair.n_items}), "
                f"expected ({m}, {n}): all pairs must share the entity sets"
            )
    layout = GroupLayout.from_ranks([p.metagraph for p in pairs], [p.rank for p in pairs])
    layout.validate()
    users = np.concatenate([p.U for p in pairs], axis=1)
    items = np.concatenate([p.B for p in pairs], axis=1)
    return (users, items), layout


def fit_standardizer(table):
    """Per-column mean and deviation (std floored at 1e-8) of the table's rows, each entity row
    weighted by how often the index draws it: the gathered (N, d) matrix's statistics, unbuilt."""
    means, variances = [], []
    for features, index in table.blocks:
        counts = np.bincount(index, minlength=len(features))
        means.append(counts @ features / len(index))
        variances.append(counts @ (features - means[-1]) ** 2 / len(index))
    return np.concatenate(means), np.maximum(np.sqrt(np.concatenate(variances)), 1e-8)


def standardize(features, scaler):
    """Apply a fitted standardizer to feature arrays lying side by side in column order."""
    mean, std = (np.split(part, np.cumsum([array.shape[1] for array in features])[:-1]) for part in scaler)
    return tuple((array - m) / s for array, m, s in zip(features, mean, std))


_PIECE = 8192  # rows per BLAS call: larger calls go multithreaded and stall while a core is busy


def _times(A, B):
    """``A @ B``, in pieces of at most _PIECE rows of ``A``."""
    if len(A) <= _PIECE:
        return A @ B
    return np.concatenate([A[s : s + _PIECE] @ B for s in range(0, len(A), _PIECE)])


def _sum_over_rows(C, A):
    """``C.T @ A``, summed over pieces of at most _PIECE rows."""
    if len(A) <= _PIECE:
        return C.T @ A
    return sum(C[s : s + _PIECE].T @ A[s : s + _PIECE] for s in range(0, len(A), _PIECE))


def _forward(params, table):
    """Per-row ``[x V, x w - (x∘x) vsq / 2]`` (N, K + 1), ``vsq`` the row sums of ``V∘V``, and
    the predictions; each block multiplies its entity rows once and gathers them by index."""
    Vw = np.column_stack([params.V, params.w])
    vsq = np.einsum("ij,ij->i", params.V, params.V)
    rows = np.zeros((len(table), params.K + 1))
    for (F, index), Fsq, cols in zip(table.blocks, table.squares, table.columns):
        products = _times(F, Vw[cols])
        products[:, -1] -= 0.5 * _times(Fsq, vsq[cols])
        rows += products.take(index, axis=0)
    return rows, params.b + rows[:, -1] + 0.5 * np.einsum("ij,ij->i", rows[:, :-1], rows[:, :-1])


def predict_batch(params, table):
    """FM predictions for every row of the table, via the O(dK) pairwise identity."""
    return _forward(params, table)[1]


def predict_pairwise_reference(params, x):
    """Literal double sum over i < j; quadratic in d, used to pin the fast path."""
    total = params.b + float(params.w @ x)
    d = len(x)
    for i in range(d):
        for j in range(i + 1, d):
            total += float(params.V[i] @ params.V[j]) * x[i] * x[j]
    return total


def mse_loss(params, table):
    """Mean squared error over the table."""
    if len(table) == 0:
        raise ValueError("feature table is empty")
    err = predict_batch(params, table) - table.y
    return float(err @ err) / len(table)


def rmse(predictions, labels):
    """Root-mean-square error; inputs must be equal-length and non-empty."""
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("cannot compute RMSE of an empty sample")
    return float(np.sqrt(np.sum((labels - predictions) ** 2)) / np.sqrt(predictions.size))


def clipped_rmse(params, table, rating_range=None):
    """RMSE over the table of the predictions clipped to ``rating_range`` (unclipped if None)."""
    predictions = predict_batch(params, table)
    return rmse(predictions if rating_range is None else np.clip(predictions, *rating_range), table.y)


def group_norms(z, layout):
    """Euclidean (vectors) or Frobenius (matrices) norm of every group block, in one reduction."""
    squares = np.square(z).reshape(len(z), -1).sum(axis=1)
    return np.sqrt(np.add.reduceat(squares, layout._offsets[:-1]))


def _scale_groups(z, layout, scale):
    """``z`` (w (d,) or V (d, K)) with every group multiplied by its own entry of ``scale``."""
    rows = np.repeat(scale, np.diff(layout._offsets))
    return z * (rows if z.ndim == 1 else rows[:, None])


def _penalty_terms(params, layout, cfg):
    """Weights (lam_w per w group, then lam_v per V group) and norms of the w groups followed by
    the V groups."""
    weights = np.repeat([float(cfg.lam_w), float(cfg.lam_v)], layout.n_groups)
    return weights, np.concatenate([group_norms(params.w, layout), group_norms(params.V, layout)])


def reg_value(params, layout, cfg):
    """Value of the group penalty: plain norms in convex mode, log(1 + norm) under LSP."""
    weights, t = _penalty_terms(params, layout, cfg)
    return float(weights @ (np.log1p(t) if cfg.mode == "lsp" else t))


def smooth_surplus(params, layout, cfg):
    """g = penalty minus its convex envelope (the norm); identically 0 in convex mode."""
    if cfg.mode == "convex":
        return 0.0
    weights, t = _penalty_terms(params, layout, cfg)
    return float(weights @ (np.log1p(t) - t))


def mse_grad(params, table):
    """Gradient of the mean squared error over the table's rows: the residuals, and their
    products with ``x V``, are summed per entity through the table's index
    (:meth:`FeatureTable.entity_sums`), then multiplied by each block's features."""
    rows, pred = _forward(params, table)
    residual = pred - table.y
    rows[:, -1] = 1.0  # so the last column of each entity's sum is its residuals' sum
    grad = np.empty((params.d, params.K + 1))  # [grad_V, grad_w]
    sums_per_block = table.entity_sums(residual, rows)
    for (F, _), Fsq, cols, sums in zip(table.blocks, table.squares, table.columns, sums_per_block):
        grad[cols] = _sum_over_rows(sums, F).T
        grad[cols, :-1] -= params.V[cols] * _sum_over_rows(sums[:, -1], Fsq)[:, None]
    scale = 2.0 / len(table)
    return scale * float(np.sum(residual)), scale * grad[:, -1], scale * grad[:, :-1]


def augmented_grad(params, table, layout, cfg):
    """Gradient of the smooth augmented loss over a table (the full sample or a batch).

    Returns grad of the batch-mean squared error plus the gradient of the
    smooth surplus g (zero in convex mode, where the whole penalty lives in
    the proximal step).  Over the full sample this is exactly the gradient
    of the augmented objective, and mini-batches estimate it without bias.
    """
    grad_b, grad_w, grad_v = mse_grad(params, table)
    if cfg.mode == "lsp":
        # d/dz [kappa(t) - t] = (1 / (1 + t) - 1) z / t = -z / (1 + t), t = ||z||: 0 at z = 0
        weights, t = _penalty_terms(params, layout, cfg)
        coef_w, coef_v = np.split(weights / (1.0 + t), 2)
        grad_w = grad_w - _scale_groups(params.w, layout, coef_w)
        grad_v = grad_v - _scale_groups(params.V, layout, coef_v)
    return grad_b, grad_w, grad_v


def prox_group(z, layout, thresholds):
    """Blockwise shrinkage: each group scales by max(1 - threshold / norm, 0).

    Solves min_x 0.5 * ||x - z||^2 + sum_g threshold_g * ||x_g|| exactly;
    works on the weight vector and on the factor matrix alike.  A group with
    threshold 0 comes back unchanged, one with norm <= threshold as zeros.
    """
    tau = np.asarray(thresholds, dtype=float)
    if tau.shape != (layout.n_groups,):
        raise ValueError(f"got {tau.size} thresholds for {layout.n_groups} groups")
    if not np.all(tau >= 0):
        raise ValueError("thresholds must be >= 0")
    shrink = np.divide(tau, np.maximum(group_norms(z, layout), tau), out=np.zeros_like(tau), where=tau > 0)
    return _scale_groups(z, layout, 1.0 - shrink)


def objective(params, table, layout, cfg):
    """Training objective: loss plus the (possibly nonconvex) group penalty."""
    return mse_loss(params, table) + reg_value(params, layout, cfg)


def augmented_objective(params, table, layout, cfg):
    """Loss + g plus the convex penalty; equals :func:`objective` exactly."""
    weights, t = _penalty_terms(params, layout, cfg)
    surplus = float(weights @ (np.log1p(t) - t)) if cfg.mode == "lsp" else 0.0
    return mse_loss(params, table) + surplus + float(weights @ t)


def param_nnz_ratio(params, tol=1e-10):
    """Fraction of first- and second-order entries above ``tol``; the bias is excluded."""
    nnz = int(np.sum(np.abs(params.w) > tol)) + int(np.sum(np.abs(params.V) > tol))
    return nnz / (params.d + params.d * params.K)


@dataclass
class SavedModel:
    """A trained FM with the entity features it was trained on: ``features`` is the (user, item)
    pair of blocks, standardized if the run was, whose rows have the external ids ``user_ids``
    and ``item_ids``; ``prediction`` holds the ``rating_range`` its predictions are clipped to
    (the schema's rating scale at training), and ``split`` the ``seed`` and ``fractions`` of the
    rating split it was trained on and the ``ratings_sha256`` of the ratings file it split."""

    params: FmParams
    layout: GroupLayout
    reg: RegConfig
    prediction: dict
    features: tuple
    user_ids: np.ndarray
    item_ids: np.ndarray
    split: dict


def save_model(file, model):
    """Persist a :class:`SavedModel` of format :data:`FORMAT` to ``file``, a path or an open binary
    handle; it round-trips bit-exactly, ids as unicode."""
    params, reg = model.params, model.reg
    header = {
        "format": FORMAT,
        "d": params.d,
        "K": params.K,
        "groups": [list(g) for g in model.layout.groups],
        "reg": {"mode": reg.mode, "lam_w": reg.lam_w, "lam_v": reg.lam_v},
        "prediction": model.prediction,
        "split": model.split,
    }
    np.savez(file, header=json.dumps(header), b=np.float64(params.b), w=params.w, V=params.V,
             user_features=model.features[0], item_features=model.features[1],
             user_ids=np.asarray(model.user_ids, dtype=str), item_ids=np.asarray(model.item_ids, dtype=str))


def load_model(path):
    """The :class:`SavedModel` written by :func:`save_model`; a file numpy cannot read as an archive
    (empty, truncated or of another kind), one of another format (or none), one lacking an entry, and
    one whose group layout does not cover its parameters and features are refused."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            data = {name: archive[name] for name in archive.files}
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as exc:  # TypeError: a lone .npy array
        raise ValueError(f"{path} is not a model file this version can read ({exc}); train the model again") from None
    try:
        header = json.loads(str(data["header"]))
        found = header.get("format", "none")
        if found != FORMAT:
            raise ValueError(f"{path} has format {found}, this version reads format {FORMAT}; train the model again")
        reg = header["reg"]
        model = SavedModel(
            params=FmParams(float(data["b"]), data["w"], data["V"]),
            layout=GroupLayout(tuple(tuple(g) for g in header["groups"]), header["d"]),
            reg=RegConfig(mode=reg["mode"], lam_w=reg["lam_w"], lam_v=reg["lam_v"]),
            prediction=header["prediction"],
            features=(data["user_features"], data["item_features"]),
            user_ids=data["user_ids"],
            item_ids=data["item_ids"],
            split=header["split"],
        )
    except KeyError as exc:
        raise ValueError(f"{path} lacks an entry ({exc.args[0]}); train the model again") from None
    d = model.layout.d
    widths = [model.params.d, len(model.params.V), *(2 * block.shape[1] for block in model.features)]
    if any(width != d for width in widths):
        raise ValueError(f"{path} records d = {d}, but its w, V and twice its feature widths are {widths}")
    try:
        model.layout.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model
