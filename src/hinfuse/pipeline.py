"""End-to-end orchestration: ingest, similarities, factors, training, metrics.

Reads one JSON experiment config, runs the stages in order with per-artifact
disk caching, and writes a metrics report plus model and trace files.
Similarity matrices are computed over the *training* split's rating
adjacency only, so held-out pairs never shape the features; test labels are
first touched in the evaluation stage (see :data:`label_access_hook`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import factors, fmg, hin, metagraph, solvers

DEFAULT_LAMBDA_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)

# Test instrumentation: when set, called as hook(role, stage) whenever a
# split's labels are materialized.  Lets tests assert that test labels are
# only read by the evaluation stage.
label_access_hook = None


def _labels(rating_set, stage):
    if label_access_hook is not None:
        label_access_hook(rating_set.role, stage)
    return rating_set.values


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def rmse(predictions, labels):
    """Root-mean-square error; inputs must be equal-length and non-empty."""
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("cannot compute RMSE of an empty sample")
    return float(np.sqrt(np.sum((labels - predictions) ** 2)) / np.sqrt(predictions.size))


def report_selected(params, layout, threshold=1e-10):
    """Per-group norms and selected flags for first- and second-order blocks."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    w_norms = fmg.group_norms(params.w, layout)
    v_norms = fmg.group_norms(params.V, layout)
    return [
        {
            "group": label,
            "w_norm": float(wn),
            "v_norm": float(vn),
            "w_selected": bool(wn > threshold),
            "v_selected": bool(vn > threshold),
        }
        for (label, _, _), wn, vn in zip(layout.groups, w_norms, v_norms)
    ]


# The keys of each config-file section ("" is the top level, which also holds the other
# sections); a key sets the ExperimentConfig field of its name, or of its _RENAMED name.
_CONFIG_KEYS = {
    "": ("schema", "metagraphs", "select", "seed", "binarize_ratings", "log_scale_similarity",
         "optimize_plans", "clip_predictions", "rating_range", "repeats", "workers"),
    "split": ("fractions", "seed"),
    "features": ("method", "rank", "mu", "max_rank", "standardize"),
    "fm": ("K", "mode", "lambda", "eta_weighting"),
    "solver": tuple(f.name for f in fields(solvers.SolverConfig)),
}
_RENAMED = {"method": "feature_method", "standardize": "standardize_features", "lambda": "lambdas"}
_CASTS = {"seed": int, "rank": int, "mu": float, "K": int, "repeats": int, "workers": int,
          "fractions": tuple, "rating_range": tuple}


@dataclass
class ExperimentConfig:
    """Everything one run needs; ``_CONFIG_KEYS`` gives the file layout."""

    schema: str
    metagraphs: str
    select: list = None  # subset of metagraph names; None = all
    fractions: tuple = (0.8, 0.1, 0.1)
    seed: int = 0
    binarize_ratings: bool = True
    log_scale_similarity: bool = False
    optimize_plans: bool = False
    feature_method: str = "mf"  # mf | nnr
    rank: int = 10
    mu: float = 0.01
    max_rank: int = 10  # emitted NNR feature cap
    standardize_features: bool = False  # per-column z-scoring fit on train
    K: int = 10
    mode: str = "convex"
    lambdas: tuple = DEFAULT_LAMBDA_GRID
    eta_weighting: str = "ones"  # ones | sqrt
    solver: solvers.SolverConfig = field(default_factory=solvers.SolverConfig)
    clip_predictions: bool = True
    rating_range: tuple = (1.0, 5.0)
    repeats: int = 1
    workers: int = 1  # per-metagraph similarity/factorization jobs in flight

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        lams = self.lambdas if hasattr(self.lambdas, "__len__") else (self.lambdas,)
        if any(l < 0 for l in lams):
            raise ValueError("lambda must be >= 0")
        self.lambdas = tuple(lams)
        if self.feature_method not in ("mf", "nnr"):
            raise ValueError(f"unknown feature method {self.feature_method!r}")
        if self.mode not in ("convex", "lsp"):
            raise ValueError(f"unknown fm mode {self.mode!r}; pick convex or lsp")
        if self.eta_weighting not in ("ones", "sqrt"):
            raise ValueError(f"unknown eta weighting {self.eta_weighting!r}; pick ones or sqrt")

    @classmethod
    def from_dict(cls, doc, base_dir="."):
        """Config from a parsed JSON document; absent keys keep the field defaults, unknown ones fail."""
        sections = {}
        for name, keys in _CONFIG_KEYS.items():  # the top level first: doc is a dict after it
            section = sections[name] = doc.get(name, {}) if name else doc
            if not isinstance(section, dict):
                raise ValueError(f"config section {name or 'top level'} must be a JSON object")
            known = [*keys, *list(_CONFIG_KEYS)[1:]] if name == "" else keys  # top level: + sections
            unknown = [repr(f"{name}.{key}" if name else key) for key in sorted(set(section) - set(known))]
            if unknown:
                raise ValueError(f"unknown config key {', '.join(unknown)}")
        values = {}
        for name in ("", "split", "features", "fm"):  # split after the top level: its seed wins
            for key in set(sections[name]) & set(_CONFIG_KEYS[name]):
                field_name = _RENAMED.get(key, key)
                values[field_name] = _CASTS.get(field_name, lambda v: v)(sections[name][key])
        for key in ("schema", "metagraphs"):
            if key not in doc:
                raise ValueError(f"config lacks {key!r}")
            values[key] = os.path.join(base_dir, doc[key])
        cfg = cls(**values, solver=solvers.SolverConfig(**sections["solver"]))
        if "seed" in doc and "seed" not in sections["split"]:
            cfg.solver.seed = int(doc["seed"])
        for path in (cfg.schema, cfg.metagraphs):
            if not os.path.exists(path):
                raise ValueError(f"config references a missing file: {path}")
        return cfg

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


@dataclass
class MetricsReport:
    rmse_train: float = None
    rmse_valid: float = None
    rmse_test: float = None
    rmse_test_std: float = None
    nnz: float = None
    selected_lambda: float = None
    groups: list = field(default_factory=list)
    lambda_series: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)
    cache_events: dict = field(default_factory=dict)
    repeats: list = field(default_factory=list)

    def to_dict(self):
        return {
            "rmse": {"train": self.rmse_train, "valid": self.rmse_valid, "test": self.rmse_test,
                     "test_std": self.rmse_test_std},
            "nnz": self.nnz,
            "selected_lambda": self.selected_lambda,
            "groups": self.groups,
            "lambda_series": self.lambda_series,
            "stage_seconds": self.stage_seconds,
            "cache_events": self.cache_events,
            "repeats": self.repeats,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def comparable(self):
        """Everything except timings and cache bookkeeping (for determinism checks)."""
        doc = self.to_dict()
        doc.pop("stage_seconds")
        doc.pop("cache_events")
        return doc


def _hash_file(path, h):
    with open(path, "rb") as fh:
        while chunk := fh.read(65536):
            h.update(chunk)


def _input_fingerprint(config):
    """Content hash over the schema, every referenced data file and the DSL file."""
    h = hashlib.sha256()
    _hash_file(config.schema, h)
    schema = hin.load_schema(config.schema)
    base = os.path.dirname(os.path.abspath(config.schema))
    for rel in schema["relations"]:
        _hash_file(os.path.join(base, rel["file"]), h)
    if schema.get("ratings"):
        _hash_file(os.path.join(base, schema["ratings"]["file"]), h)
    _hash_file(config.metagraphs, h)
    return h.hexdigest()[:16]


@dataclass
class StageRun:
    """What one pass through the stages built; fields of stages not run stay None."""

    store: hin.HinStore = None
    ratings: hin.RatingSet = None
    specs: list = None
    validation: object = None  # the ingest stage's hin.validate report
    splits: dict = None  # role -> RatingSet
    sims: list = None
    pairs: list = None
    features: tuple = None  # (user, item) entity feature arrays, standardized if configured
    layout: fmg.GroupLayout = None
    scaler: tuple = None  # (mean, std) of the training features, or None
    params: fmg.FmParams = None
    trace: solvers.TrainTrace = None
    lam: float = None
    series: list = None
    rmses: dict = None


def _key(*parts):
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _Stages:
    """The pipeline's stages; :meth:`run` is the one sequence run_pipeline and the CLI share."""

    def __init__(self, config, out_dir, cache_dir=None):
        self.config = config
        self.out_dir = out_dir
        self.cache_dir = cache_dir or os.path.join(out_dir, "cache")
        os.makedirs(self.out_dir, exist_ok=True)
        os.makedirs(self.cache_dir, exist_ok=True)
        self.stage_seconds = {}
        self.cache_events = {"similarity": [], "factorize": []}
        self.fingerprint = None
        self.ingested = None  # the ingest stage's outputs, reused by every later run

    def timed(self, stage, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(stage, exc) from exc
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + time.perf_counter() - start
        return result

    def map_jobs(self, items, fn):
        """Run independent per-metagraph jobs, in order or on a thread pool."""
        if self.config.workers <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            return list(pool.map(fn, items))

    # -- stage bodies ------------------------------------------------------

    def ingest(self):
        cfg = self.config
        store, ratings, rating_decl = hin.ingest(cfg.schema)
        report = hin.validate(store)
        if not report.ok:
            raise ValueError("; ".join(report.errors))
        if ratings is None:
            raise ValueError("schema declares no ratings section")
        self.fingerprint = _input_fingerprint(cfg)
        specs = metagraph.load_metagraph_file(cfg.metagraphs)
        if cfg.select is not None:
            by_name = {s.name: s for s in specs}
            missing = [n for n in cfg.select if n not in by_name]
            if missing:
                raise ValueError(f"selected metagraphs not in DSL file: {missing}")
            specs = [by_name[n] for n in cfg.select]
        if not specs:
            raise ValueError("no metagraphs selected")
        return store, ratings, rating_decl, specs, report

    def split(self, ratings, seed):
        return hin.split_ratings(ratings, self.config.fractions, seed)

    def similarities(self, store, train_ratings, rating_decl, specs, seed):
        cfg = self.config
        hin.attach_ratings(store, train_ratings, rating_decl, binarize=cfg.binarize_ratings)
        for spec in specs:
            if (spec.source_type, spec.sink_type) != (rating_decl.head_type, rating_decl.tail_type):
                raise ValueError(
                    f"metagraph {spec.name!r} runs {spec.source_type}->{spec.sink_type}, but "
                    f"ratings connect {rating_decl.head_type}->{rating_decl.tail_type}"
                )
        def job(spec):
            key = _key(
                "similarity", self.fingerprint, metagraph.format_metagraph(spec),
                cfg.fractions, seed, cfg.binarize_ratings, cfg.log_scale_similarity,
                cfg.optimize_plans,
            )
            path = os.path.join(self.cache_dir, f"sim_{spec.name}_{key}.npz")
            if os.path.exists(path):
                return metagraph.load_similarity(path), True
            plan = metagraph.compile_plan(spec, store, optimize=cfg.optimize_plans)
            sim = metagraph.execute_plan(plan, store)
            if cfg.log_scale_similarity:
                sim.matrix.data = np.log1p(sim.matrix.data)
            metagraph.save_similarity(path, sim)
            return sim, False

        results = self.map_jobs(specs, job)
        for spec, (_, hit) in zip(specs, results):
            self.cache_events["similarity"].append({"metagraph": spec.name, "hit": hit})
        return [sim for sim, _ in results]

    def factorize(self, sims, seed):
        cfg = self.config

        def job(sim):
            key = _key(
                "factors", self.fingerprint, sim.metagraph, cfg.feature_method, cfg.rank,
                cfg.mu, cfg.max_rank, cfg.fractions, seed, cfg.binarize_ratings,
                cfg.log_scale_similarity,
            )
            upath = os.path.join(self.cache_dir, f"fac_{sim.metagraph}_{key}.user.npz")
            ipath = os.path.join(self.cache_dir, f"fac_{sim.metagraph}_{key}.item.npz")
            if os.path.exists(upath) and os.path.exists(ipath):
                return factors.load_factor_pair(upath, ipath), True
            obs = factors.ObservedMatrix.from_similarity(sim)
            if cfg.feature_method == "mf":
                pair = factors.factorize_mf(obs, cfg.rank, cfg.mu, seed=seed, name=sim.metagraph)
            else:
                pair = factors.factorize_nnr(
                    obs, cfg.mu, seed=seed, max_rank=cfg.max_rank, name=sim.metagraph
                )
            factors.save_factor_side(upath, pair, "user")
            factors.save_factor_side(ipath, pair, "item")
            return pair, False

        results = self.map_jobs(sims, job)
        for sim, (_, hit) in zip(sims, results):
            self.cache_events["factorize"].append({"metagraph": sim.metagraph, "hit": hit})
        return [pair for pair, _ in results]

    def assemble(self, pairs, train_rs, model=None):
        """``(features, layout, scaler)``: the factor pairs' entity feature arrays, built once per run
        and standardized by the saved ``model``'s scaler or, if configured, one fit on train."""
        features, layout = fmg.factor_blocks(pairs)
        if model is not None:
            if model[1] != layout:
                raise StageError("evaluate", ValueError(
                    f"model groups {model[1].labels} differ from the config's {layout.labels}"
                ))
            scaler = model[3]
        elif self.config.standardize_features:
            scaler = fmg.fit_standardizer(self.table(features, train_rs, "train"))
        else:
            scaler = None
        if scaler is not None:
            features = fmg.standardize(features, scaler)
        return features, layout, scaler

    @staticmethod
    def table(features, rating_set, stage):
        """The split's table: user features by user, item features by item; labels read for ``stage``."""
        blocks = tuple(zip(features, (rating_set.users, rating_set.items)))
        return fmg.FeatureTable(_labels(rating_set, stage), blocks)

    def reg_config(self, layout, lam):
        cfg = self.config
        etas = fmg.sqrt_width_etas(layout) if cfg.eta_weighting == "sqrt" else None
        return fmg.RegConfig(mode=cfg.mode, lam_w=lam, lam_v=lam, eta_w=etas, eta_v=etas)

    def train(self, features, train_rs, valid_rs, layout):
        """Sweep the lambda grid, select by validation RMSE, return the winner."""
        cfg = self.config
        clip = cfg.rating_range if cfg.clip_predictions else None
        train_table = self.table(features, train_rs, "train")
        valid_table = self.table(features, valid_rs, "train") if len(valid_rs) else None
        series = []
        best = None
        for lam in cfg.lambdas:
            problem = solvers.TrainProblem(
                train_table, layout, self.reg_config(layout, lam), cfg.K, valid=valid_table,
                clip_range=clip,
            )
            params, trace = solvers.train(problem, cfg.solver)
            valid_rmse = float("nan") if valid_table is None else self.score(params, valid_table)
            entry = {"lambda": lam, "rmse_valid": valid_rmse, "nnz": fmg.param_nnz_ratio(params)}
            series.append(entry)
            if best is None or (np.isfinite(valid_rmse) and valid_rmse < best[0]):
                best = (valid_rmse if np.isfinite(valid_rmse) else float("inf"), lam, params, trace)
        _, lam, params, trace = best
        return params, trace, lam, series

    def score(self, params, table):
        """RMSE of the predictions, clipped to the rating range if configured."""
        pred = fmg.predict_batch(params, table)
        if self.config.clip_predictions:
            pred = np.clip(pred, *self.config.rating_range)
        return rmse(pred, table.y)

    def prediction_settings(self):
        """The config fields that turn a model's raw output into scored predictions."""
        cfg = self.config
        return {
            "clip_predictions": bool(cfg.clip_predictions),
            "rating_range": [float(v) for v in cfg.rating_range],
            "feature_method": cfg.feature_method,
        }

    def evaluate(self, params, features, splits):
        """RMSE per split, scored on the assembled entity features."""
        return {
            role: self.score(params, self.table(features, rating_set, "evaluate")) if len(rating_set) else None
            for role, rating_set in splits.items()
        }

    def run(self, seed, through="evaluate", model=None):
        """Run the stages in order through ``through``; return what they built.

        ``through`` is ingest, similarity, factorize, train or evaluate.
        ``model``, as returned by :func:`fmg.load_model`, stands in for the
        train stage and its scaler for the standardizer fit, so evaluation
        scores it as it was saved; its prediction settings and feature groups
        must match the config's.  The inputs are ingested on the first run
        only; later runs reuse them.
        """
        settings = self.prediction_settings()
        if model is not None and model[4] != settings:
            raise StageError(
                "evaluate", ValueError(f"model was trained with {model[4]}, the config asks for {settings}")
            )
        run = StageRun()
        if self.ingested is None:
            self.ingested = self.timed("ingest", self.ingest)
        run.store, run.ratings, decl, run.specs, run.validation = self.ingested
        if through == "ingest":
            return run
        train_rs, valid_rs, test_rs = self.timed("split", lambda: self.split(run.ratings, seed))
        run.splits = {"train": train_rs, "valid": valid_rs, "test": test_rs}
        run.sims = self.timed(
            "similarity", lambda: self.similarities(run.store, train_rs, decl, run.specs, seed)
        )
        if through == "similarity":
            return run
        run.pairs = self.timed("factorize", lambda: self.factorize(run.sims, seed))
        if through == "factorize":
            return run
        run.features, run.layout, run.scaler = self.timed(
            "assemble", lambda: self.assemble(run.pairs, train_rs, model)
        )
        if model is not None:
            run.params = model[0]
        else:
            run.params, run.trace, run.lam, run.series = self.timed(
                "train", lambda: self.train(run.features, train_rs, valid_rs, run.layout)
            )
        if through == "train":
            return run
        run.rmses = self.timed("evaluate", lambda: self.evaluate(run.params, run.features, run.splits))
        return run

    def save_model(self, run):
        """Write the trained model (with its standardizer and prediction settings) and its
        solver trace to out_dir."""
        fmg.save_model(os.path.join(self.out_dir, "model.npz"), run.params, run.layout,
                       self.reg_config(run.layout, run.lam), scaler=run.scaler,
                       **self.prediction_settings())
        run.trace.to_jsonl(os.path.join(self.out_dir, "trace.jsonl"))


def run_pipeline(config, out_dir, cache_dir=None):
    """Execute every stage and write metrics.json, model.npz and trace.jsonl."""
    stages = _Stages(config, out_dir, cache_dir)
    report = MetricsReport()

    test_rmses = []
    for repeat in range(config.repeats):
        run = stages.run(config.seed + repeat)
        test_rmses.append(run.rmses["test"])
        if repeat == 0:
            report.rmse_train = run.rmses["train"]
            report.rmse_valid = run.rmses["valid"]
            report.nnz = fmg.param_nnz_ratio(run.params)
            report.selected_lambda = run.lam
            report.groups = report_selected(run.params, run.layout)
            report.lambda_series = run.series
            stages.save_model(run)

    report.repeats = test_rmses
    report.rmse_test = float(np.mean(test_rmses))
    report.rmse_test_std = float(np.std(test_rmses)) if len(test_rmses) > 1 else None
    report.stage_seconds = stages.stage_seconds
    report.cache_events = stages.cache_events
    report.save(os.path.join(out_dir, "metrics.json"))
    return report
