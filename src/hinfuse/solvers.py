"""Training algorithms for the group-sparse factorization machine.

All three solvers minimize the same augmented objective (smooth loss plus
surplus, convex group penalty handled by the proximal step):

* :func:`train_nmapg` — nonmonotone accelerated proximal gradient (Li & Lin)
  with the running-average acceptance test: the main prox step is always
  taken at the extrapolated point, with a plain prox step at the current
  point as the fallback.  Its acceptance margin delta and running-average
  weight eta are the constants :data:`SUFFICIENT_DECREASE` and
  :data:`HISTORY_DECAY`.
* :func:`train_svrg` — proximal stochastic variance-reduced gradient:
  epoch snapshots of the full gradient correct mini-batch directions.
* :func:`train_sgd` — proximal SGD with a decaying step, kept as the
  baseline for convergence comparisons.

Every solver trains all of b, w and V; a problem that needs no
second-order term says so through its regularizer or its features, not a
switch.  The bias is a smooth unregularized coordinate: it rides along in
every gradient step and is skipped by the prox.

A solver reaches the model only through its :class:`TrainProblem`
(``value``, ``grad``, ``prox_step`` and ``rmse_valid``).  Every step
returns new arrays, so an iterate is never copied.  One rule writes the
trace of all three (``_record``): every ``checkpoint_every``-th iteration
or epoch, and always the last, which is at the parameters returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import fmg


SUFFICIENT_DECREASE = 1e-3  # nmAPG acceptance margin delta
HISTORY_DECAY = 0.8  # nmAPG running-average weight eta


class DivergenceError(RuntimeError):
    """Objective became non-finite; carries the last finite iterate and trace."""

    def __init__(self, message, params=None, trace=None):
        super().__init__(message)
        self.params = params
        self.trace = trace


def setting(key, kind, default=MISSING, choices=None, bound=None):
    """A config field: its file ``key`` ("section.name", or a bare top-level name), its ``kind``
    (see :func:`check_settings`) and its check, a tuple of ``choices`` or a lower ``bound`` such as
    ``(">=", 1)`` or ``(">", 0)``.  The config loader reads the file layout from these fields."""
    return field(default=default, metadata={"key": key, "kind": kind, "choices": choices, "bound": bound})


def _number(key, value, kind):
    """``value`` as a finite config number of ``kind`` ("int" or "float"); anything else fails,
    naming ``key``.  JSON's ``NaN`` and ``Infinity`` fail here: a NaN compares false, so no range
    check after this one would catch it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    if kind == "int":
        if not number.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return number


def check_settings(config):
    """Check each :func:`setting` field of the dataclass ``config`` against its kind and check,
    naming its config key on failure, and store the value in its kind's form.

    An int takes an integral number and a float any finite number; numbers
    takes a list of numbers, or one number, as a tuple; a bool takes only
    true or false, names a list of strings, and str and path a string.
    None passes where it is the field's default.
    """
    for spec in fields(config):
        meta, value = spec.metadata, getattr(config, spec.name)
        if not meta or value is None and spec.default is None:
            continue
        key, kind, choices, bound = meta["key"], meta["kind"], meta["choices"], meta["bound"]
        if kind in ("int", "float"):
            value = _number(key, value, kind)
        elif kind == "numbers":
            value = tuple(value) if isinstance(value, (list, tuple)) else (value,)
            for item in value:
                _number(key, item, "float")
        elif kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{key} must be true or false, got {value!r}")
        elif kind == "names" and not (isinstance(value, list) and all(isinstance(n, str) for n in value)):
            raise ValueError(f"{key} must be a list of strings, got {value!r}")
        elif kind in ("str", "path") and not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        for item in value if kind == "numbers" else (value,):
            if choices and item not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}, got {item!r}")
            if bound and not (item >= bound[1] if bound[0] == ">=" else item > bound[1]):
                raise ValueError(f"{key} must be {bound[0]} {bound[1]}, got {item}")
        setattr(config, spec.name, value)


@dataclass
class SolverConfig:
    algorithm: str = setting("solver.algorithm", "str", "nmapg", choices=("nmapg", "svrg", "sgd"))
    step: float = setting("solver.step", "float", 0.01, bound=(">", 0))
    # outer iterations (nmAPG) or epochs (SVRG/SGD)
    max_iters: int = setting("solver.max_iters", "int", 500, bound=(">=", 1))
    # SVRG/SGD mini-batch size m_b and inner loop count B
    batch_size: int = setting("solver.batch_size", "int", None, bound=(">=", 1))
    inner_steps: int = setting("solver.inner_steps", "int", None, bound=(">=", 1))
    # SGD schedule: step / (1 + decay * t)
    step_decay: float = setting("solver.step_decay", "float", 0.01, bound=(">=", 0))
    seed: int = setting("solver.seed", "int", 0, bound=(">=", 0))
    checkpoint_every: int = setting("solver.checkpoint_every", "int", 1, bound=(">=", 1))

    def __post_init__(self):
        check_settings(self)

    def batch_plan(self, n):
        m_b = self.batch_size
        inner = self.inner_steps
        if m_b is not None and inner is not None:
            if m_b * inner != n:
                raise ValueError(f"batch_size * inner_steps must equal N: {m_b} * {inner} != {n}")
            return m_b, inner
        if m_b is None:
            m_b = max(1, min(128, n // 10))
        if inner is None:
            inner = max(1, n // m_b)
        return m_b, inner


@dataclass
class TrainProblem:
    """One training task: feature table, layout, regularizer and model width K."""

    table: fmg.FeatureTable
    layout: fmg.GroupLayout
    reg: fmg.RegConfig
    K: int
    valid: fmg.FeatureTable = None  # optional validation table
    clip_range: tuple = None  # clip trace-RMSE predictions into this range

    def __post_init__(self):
        if len(self.table) == 0:
            raise ValueError("problem has no samples")
        if self.table.d != self.layout.d:
            raise ValueError(f"feature width {self.table.d} != layout d {self.layout.d}")
        if self.K < 1:
            raise ValueError("K must be >= 1")

    @property
    def n(self):
        return len(self.table)

    def value(self, params):
        """The objective h at ``params``; the augmented objective every solver descends equals it."""
        return fmg.objective(params, self.table, self.layout, self.reg)

    def grad(self, params, batch=None):
        """Gradient over every row, or over a mini-batch table from ``table.rows``."""
        return fmg.augmented_grad(params, self.table if batch is None else batch, self.layout, self.reg)

    def prox_step(self, params, grads, step):
        """A gradient step of size ``step`` from ``params``, then the group prox at thresholds
        ``step * lam_w`` and ``step * lam_v``; the bias is not shrunk."""
        gb, gw, gv = grads
        n_groups = self.layout.n_groups
        b = params.b - step * gb
        w = fmg.prox_group(params.w - step * gw, self.layout, np.full(n_groups, step * float(self.reg.lam_w)))
        V = fmg.prox_group(params.V - step * gv, self.layout, np.full(n_groups, step * float(self.reg.lam_v)))
        return fmg.FmParams(b, w, V)

    def rmse_valid(self, params):
        """Clipped RMSE on the validation table, or None without one."""
        return None if self.valid is None else fmg.clipped_rmse(params, self.valid, self.clip_range)


@dataclass
class TraceRecord:
    iteration: int
    grad_evals: float  # cumulative sample-gradient evaluations divided by N
    objective: float
    rmse_valid: float = None
    nnz: float = None
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class TrainTrace:
    records: list = field(default_factory=list)

    def append(self, record):
        if self.records and record.grad_evals < self.records[-1].grad_evals:
            raise ValueError("gradient-evaluation counter must not decrease")
        self.records.append(record)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def to_jsonl(self, path):
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(
                    json.dumps(
                        {
                            "iter": r.iteration,
                            "grad_evals_over_N": r.grad_evals,
                            "objective": r.objective,
                            "rmse_valid": r.rmse_valid,
                            "nnz": r.nnz,
                            "seconds": r.seconds,
                            **r.extra,
                        }
                    )
                    + "\n"
                )


def init_params(problem, cfg):
    """w starts at zero, b at the label mean, V at small Gaussian values."""
    rng = np.random.default_rng(cfg.seed)
    d = problem.layout.d
    return fmg.FmParams(float(np.mean(problem.table.y)), np.zeros(d),
                        rng.normal(0.0, 0.01, (d, problem.K)))


def _record(trace, problem, cfg, t, grad_evals, value, params, started, extra=None):
    """Append iteration or epoch ``t``, at ``params`` of objective ``value``, to ``trace`` when
    ``t`` is a multiple of ``cfg.checkpoint_every`` or the last: a trace ends at the returned
    parameters.  ``extra`` holds a solver's own fields."""
    if t % cfg.checkpoint_every == 0 or t == cfg.max_iters:
        trace.append(TraceRecord(t, grad_evals, value, problem.rmse_valid(params), fmg.param_nnz_ratio(params),
                                 time.perf_counter() - started, extra or {}))


def _end_epoch(trace, problem, cfg, epoch, grad_evals, params, started, diverged_at=None):
    """Close an SVRG or SGD epoch on ``params``: record it, or raise on a non-finite objective
    (carrying ``diverged_at``, default ``params``)."""
    value = problem.value(params)
    if not np.isfinite(value):
        raise DivergenceError(
            f"objective diverged in epoch {epoch}; reduce the step size "
            f"(currently {cfg.step}) or standardize the features",
            params=params if diverged_at is None else diverged_at, trace=trace,
        )
    _record(trace, problem, cfg, epoch, grad_evals, value, params, started)


def prox_gradient_residual(params, problem, cfg=None, step=None):
    """Norm of (x - prox(x - step * grad)) / step: a critical-point certificate."""
    cfg = cfg or SolverConfig()
    step = step or cfg.step
    return np.sqrt(_distance_sq(params, problem.prox_step(params, problem.grad(params), step))) / step


def _distance_sq(p, q):
    return (
        (p.b - q.b) ** 2
        + float(np.sum((p.w - q.w) ** 2))
        + float(np.sum((p.V - q.V) ** 2))
    )


def train_nmapg(problem, cfg=None):
    """Nonmonotone accelerated proximal gradient descent on the FMG objective.

    Follows the accelerated scheme with a running average c_t of observed
    objectives: the prox step at the extrapolated point is accepted when it
    improves on c_t by the sufficient-decrease margin, otherwise a plain
    prox step at the current point competes and the better objective wins.
    On a non-finite objective the step is halved once; a second divergence
    raises :class:`DivergenceError`.
    """
    cfg = cfg or SolverConfig(algorithm="nmapg")
    step = cfg.step
    # the iterate x_t, x_{t-1} and the latest extrapolated-prox candidate; no step mutates them
    current = previous = accel_prev = init_params(problem, cfg)
    a_prev, a = 0.0, 1.0
    c = problem.value(current)
    q = 1.0
    if not np.isfinite(c):
        raise DivergenceError("objective is non-finite at initialization")

    trace = TrainTrace()
    grad_evals = 0.0
    halvings_left = 1
    started = time.perf_counter()
    t = 1
    while t <= cfg.max_iters:
        # y_t = x_t + a_{t-1}/a_t (accel_prev - x_t) + (a_{t-1}-1)/a_t (x_t - x_{t-1}), for b, w and V
        parts = zip(*((p.b, p.w, p.V) for p in (current, accel_prev, previous)))
        extrap = fmg.FmParams(*(x + a_prev / a * (z - x) + (a_prev - 1.0) / a * (x - x_prev)
                                for x, z, x_prev in parts))
        candidate = problem.prox_step(extrap, problem.grad(extrap), step)
        grad_evals += 1.0
        h_candidate = problem.value(candidate)
        dist = _distance_sq(candidate, extrap)
        nxt, h_next, branch = candidate, h_candidate, "extrapolated"
        if not (np.isfinite(h_candidate) and h_candidate <= c - SUFFICIENT_DECREASE * dist):
            fallback = problem.prox_step(current, problem.grad(current), step)
            grad_evals += 1.0
            h_fallback = problem.value(fallback)
            if np.isfinite(h_candidate) and h_candidate < h_fallback:
                branch = "fallback_extrapolated"
            else:
                nxt, h_next, branch = fallback, h_fallback, "fallback"
        if not np.isfinite(h_next):
            if halvings_left > 0:
                halvings_left -= 1
                step *= 0.5
                previous = accel_prev = current
                a_prev, a = 0.0, 1.0
                continue
            raise DivergenceError(
                f"objective diverged at iteration {t} (step {step})", params=current, trace=trace
            )

        previous, current = current, nxt
        accel_prev = candidate
        a_prev, a = a, 0.5 * (np.sqrt(4.0 * a * a + 1.0) + 1.0)
        c_before = c
        q_next = HISTORY_DECAY * q + 1.0
        c = (HISTORY_DECAY * q * c + h_next) / q_next
        q = q_next
        extra = {"c": c, "c_before": c_before, "delta_sq": dist, "branch": branch, "step": step}
        _record(trace, problem, cfg, t, grad_evals, h_next, current, started, extra)
        t += 1
    return current, trace


def train_svrg(problem, cfg=None):
    """Proximal SVRG: per epoch one full gradient plus B variance-reduced steps.

    Each inner step corrects a uniformly sampled mini-batch gradient with
    the snapshot difference, applies the group prox, and the epoch emits
    the average of its inner iterates (which also becomes the next
    snapshot point).
    """
    cfg = cfg or SolverConfig(algorithm="svrg")
    n = problem.n
    m_b, inner = cfg.batch_plan(n)
    rng = np.random.default_rng(cfg.seed)

    snapshot = inner_point = init_params(problem, cfg)
    trace = TrainTrace()
    grad_evals = 0.0
    started = time.perf_counter()
    if not np.isfinite(problem.value(snapshot)):
        raise DivergenceError("objective is non-finite at initialization")
    for epoch in range(1, cfg.max_iters + 1):
        full = problem.grad(snapshot)
        grad_evals += 1.0
        sum_b, sum_w, sum_v = 0.0, np.zeros_like(inner_point.w), np.zeros_like(inner_point.V)
        for _ in range(inner):
            batch = problem.table.rows(rng.integers(0, n, size=m_b))
            gb1, gw1, gv1 = problem.grad(inner_point, batch)
            gb0, gw0, gv0 = problem.grad(snapshot, batch)
            grad_evals += 2.0 * m_b / n
            direction = (gb1 - gb0 + full[0], gw1 - gw0 + full[1], gv1 - gv0 + full[2])
            inner_point = problem.prox_step(inner_point, direction, cfg.step)
            sum_b += inner_point.b
            sum_w += inner_point.w
            sum_v += inner_point.V
        snapshot = fmg.FmParams(sum_b / inner, sum_w / inner, sum_v / inner)
        _end_epoch(trace, problem, cfg, epoch, grad_evals, snapshot, started, diverged_at=inner_point)
    return snapshot, trace


def train_sgd(problem, cfg=None):
    """Proximal SGD baseline with step size step / (1 + decay * t)."""
    cfg = cfg or SolverConfig(algorithm="sgd")
    n = problem.n
    m_b, inner = cfg.batch_plan(n)
    rng = np.random.default_rng(cfg.seed)

    params = init_params(problem, cfg)
    trace = TrainTrace()
    grad_evals = 0.0
    started = time.perf_counter()
    t = 0
    for epoch in range(1, cfg.max_iters + 1):
        for _ in range(inner):
            batch = problem.table.rows(rng.integers(0, n, size=m_b))
            step = cfg.step / (1.0 + cfg.step_decay * t)
            params = problem.prox_step(params, problem.grad(params, batch), step)
            grad_evals += m_b / n
            t += 1
        _end_epoch(trace, problem, cfg, epoch, grad_evals, params, started)
    return params, trace


TRAINERS = {"nmapg": train_nmapg, "svrg": train_svrg, "sgd": train_sgd}


def train(problem, cfg):
    return TRAINERS[cfg.algorithm](problem, cfg)
