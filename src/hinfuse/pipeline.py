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
         "optimize_plans", "clip_predictions", "rating_range", "repeats"),
    "split": ("fractions", "seed"),
    "features": ("method", "rank", "mu", "max_rank", "standardize"),
    "fm": ("K", "mode", "lambda", "eta_weighting"),
    "solver": tuple(f.name for f in fields(solvers.SolverConfig)),
}
_RENAMED = {"method": "feature_method", "standardize": "standardize_features", "lambda": "lambdas"}


def _number(key, value, kind):
    """``value`` as a config number of ``kind`` ("int" or "float"); anything else fails, naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if kind == "int":
        if not float(value).is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _typed(key, value, spec):
    """Config ``value`` of ``key`` checked against the annotation of the dataclass field ``spec``.

    An int field takes an integral number, a float field any number and a
    tuple field a list of numbers (``fm.lambda`` also a single number); null
    is kept where the field's default is None.  Other fields pass unchecked.
    """
    if value is None and spec.default is None:
        return None
    if spec.type in ("int", "float"):
        return _number(key, value, spec.type)
    if spec.type != "tuple":
        return value
    if key == "fm.lambda" and not isinstance(value, (list, tuple)):
        return _number(key, value, "float")
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    for item in value:
        _number(key, item, "float")
    return tuple(value)


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
    optimize_plans: bool = True  # False: the paper-literal left-to-right plans
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
        specs = {f.name: f for f in fields(cls)}
        values = {}
        for name in ("", "split", "features", "fm"):  # split after the top level: its seed wins
            for key in set(sections[name]) & set(_CONFIG_KEYS[name]):
                field_name = _RENAMED.get(key, key)
                values[field_name] = _typed(f"{name}.{key}" if name else key, sections[name][key],
                                            specs[field_name])
        solver_specs = {f.name: f for f in fields(solvers.SolverConfig)}
        solver = {key: _typed(f"solver.{key}", value, solver_specs[key])
                  for key, value in sections["solver"].items()}
        for key in ("schema", "metagraphs"):
            if key not in doc:
                raise ValueError(f"config lacks {key!r}")
            values[key] = os.path.join(base_dir, doc[key])
        cfg = cls(**values, solver=solvers.SolverConfig(**solver))
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

    seed: int = None  # the split seed of this pass
    store: hin.HinStore = None
    ratings: hin.RatingSet = None
    specs: list = None
    validation: object = None  # the ingest stage's hin.validate report
    splits: dict = None  # role -> RatingSet
    sims: list = None
    pairs: list = None
    features: tuple = None  # (user, item) entity feature arrays, standardized if configured
    layout: fmg.GroupLayout = None
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
        os.makedirs(self.cache_dir, exist_ok=True)
        hin.attach_ratings(store, train_ratings, rating_decl, binarize=cfg.binarize_ratings)
        for spec in specs:
            if (spec.source_type, spec.sink_type) != (rating_decl.head_type, rating_decl.tail_type):
                raise ValueError(
                    f"metagraph {spec.name!r} runs {spec.source_type}->{spec.sink_type}, but "
                    f"ratings connect {rating_decl.head_type}->{rating_decl.tail_type}"
                )
        sims = []
        for spec in specs:
            key = _key(
                "similarity", self.fingerprint, metagraph.format_metagraph(spec),
                cfg.fractions, seed, cfg.binarize_ratings, cfg.log_scale_similarity,
                cfg.optimize_plans,
            )
            path = os.path.join(self.cache_dir, f"sim_{spec.name}_{key}.npz")
            hit = os.path.exists(path)
            if hit:
                sim = metagraph.load_similarity(path)
            else:
                plan = metagraph.compile_plan(spec, store, optimize=cfg.optimize_plans)
                sim = metagraph.execute_plan(plan, store)
                if cfg.log_scale_similarity:
                    sim.matrix.data = np.log1p(sim.matrix.data)
                metagraph.save_similarity(path, sim)
            self.cache_events["similarity"].append({"metagraph": spec.name, "hit": hit})
            sims.append(sim)
        return sims

    def factorize(self, sims, seed):
        cfg = self.config
        os.makedirs(self.cache_dir, exist_ok=True)
        pairs = []
        for sim in sims:
            key = _key(
                "factors", self.fingerprint, sim.metagraph, cfg.feature_method, cfg.rank,
                cfg.mu, cfg.max_rank, cfg.fractions, seed, cfg.binarize_ratings,
                cfg.log_scale_similarity,
            )
            upath = os.path.join(self.cache_dir, f"fac_{sim.metagraph}_{key}.user.npz")
            ipath = os.path.join(self.cache_dir, f"fac_{sim.metagraph}_{key}.item.npz")
            hit = os.path.exists(upath) and os.path.exists(ipath)
            if hit:
                pair = factors.load_factor_pair(upath, ipath)
            else:
                obs = factors.ObservedMatrix.from_similarity(sim)
                if cfg.feature_method == "mf":
                    pair = factors.factorize_mf(obs, cfg.rank, cfg.mu, seed=seed, name=sim.metagraph)
                else:
                    pair = factors.factorize_nnr(
                        obs, cfg.mu, seed=seed, max_rank=cfg.max_rank, name=sim.metagraph
                    )
                factors.save_factor_side(upath, pair, "user")
                factors.save_factor_side(ipath, pair, "item")
            self.cache_events["factorize"].append({"metagraph": sim.metagraph, "hit": hit})
            pairs.append(pair)
        return pairs

    def assemble(self, pairs, train_rs):
        """``(features, layout)``: the factor pairs' entity feature arrays, built once per run
        and, if configured, standardized by a fit on train."""
        features, layout = fmg.factor_blocks(pairs)
        if self.config.standardize_features:
            scaler = fmg.fit_standardizer(self.table(features, train_rs, "train"))
            features = fmg.standardize(features, scaler)
        return features, layout

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

    def split_record(self, seed):
        """The split a model trained under ``seed`` was fit on: its seed, the config's fractions and
        the SHA-256 of the ratings file, whose line order the split's draw depends on."""
        schema = hin.load_schema(self.config.schema)
        if not schema.get("ratings"):
            raise ValueError("schema declares no ratings section")
        digest = hashlib.sha256()
        _hash_file(os.path.join(os.path.dirname(os.path.abspath(self.config.schema)),
                                schema["ratings"]["file"]), digest)
        return {"seed": int(seed), "fractions": [float(f) for f in self.config.fractions],
                "ratings_sha256": digest.hexdigest()}

    def prediction_settings(self):
        """The config fields that turn a model's raw output into scored predictions."""
        cfg = self.config
        return {
            "clip_predictions": bool(cfg.clip_predictions),
            "rating_range": [float(v) for v in cfg.rating_range],
        }

    def evaluate(self, params, features, splits):
        """RMSE per split, scored on the assembled entity features."""
        return {
            role: self.score(params, self.table(features, rating_set, "evaluate")) if len(rating_set) else None
            for role, rating_set in splits.items()
        }

    def run(self, seed, through="evaluate"):
        """Run the stages in order through ``through``; return what they built.

        ``through`` is ingest, similarity, factorize, train or evaluate.  The
        inputs are ingested on the first run only; later runs reuse them.  A
        saved model is scored by :meth:`score_model`, not here.
        """
        run = StageRun(seed=seed)
        self.ingested = self.ingested or self.timed("ingest", self.ingest)
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
        run.features, run.layout = self.timed("assemble", lambda: self.assemble(run.pairs, train_rs))
        run.params, run.trace, run.lam, run.series = self.timed(
            "train", lambda: self.train(run.features, train_rs, valid_rs, run.layout)
        )
        if through == "train":
            return run
        run.rmses = self.timed("evaluate", lambda: self.evaluate(run.params, run.features, run.splits))
        return run

    def score_model(self, model, seed):
        """RMSE per split of a saved :class:`fmg.SavedModel`, on its own entity features.

        Only ingest and split run first; each split's users and items map to
        the model's rows through its ids, so no similarity, factorization or
        cache read takes part.  The model's split (seed and fractions) and
        prediction settings must match the config's, or its "test" ratings
        would include ones it was trained on; every rated user and item must
        be in the model.  A ratings file other than the one it was trained
        on is refused too: the same seed draws another split from it.
        """
        split = self.timed("evaluate", lambda: self.split_record(seed))
        if model.split["ratings_sha256"] != split["ratings_sha256"]:
            raise StageError("evaluate", ValueError(
                "model was trained on another ratings file: its SHA-256 differs from the config's"))
        if model.split != split:
            raise StageError("evaluate", ValueError(
                f"model was trained on the split {model.split}, the config asks for {split}"))
        settings = self.prediction_settings()
        if model.prediction != settings:
            raise StageError("evaluate", ValueError(
                f"model was trained with {model.prediction}, the config asks for {settings}"))
        self.ingested = self.ingested or self.timed("ingest", self.ingest)
        store, ratings, decl, _, _ = self.ingested
        splits = self.timed("split", lambda: self.split(ratings, seed))

        def evaluate():
            rows = []  # the model row of each store entity, -1 where the model lacks it
            for ids, type_name in ((model.user_ids, decl.head_type), (model.item_ids, decl.tail_type)):
                row = dict(zip(ids.tolist(), range(len(ids))))
                rows.append(np.array([row.get(eid, -1) for eid in store.entity(type_name).id_map], int))
            unknown = [np.unique(index[side[index] < 0]).size
                       for side, index in zip(rows, (ratings.users, ratings.items))]
            if any(unknown):
                raise ValueError(f"{unknown[0]} rated users and {unknown[1]} rated items not in the model")
            mapped = {rs.role: hin.RatingSet(rows[0][rs.users], rows[1][rs.items], rs.values, rs.role)
                      for rs in splits}
            return self.evaluate(model.params, model.features, mapped)

        return self.timed("evaluate", evaluate)

    def save_model(self, run):
        """Write the trained model, with its split, the entity features and ids it was trained on,
        and its solver trace to out_dir."""
        store, _, decl, _, _ = self.ingested
        model = fmg.SavedModel(
            run.params, run.layout, self.reg_config(run.layout, run.lam), self.prediction_settings(),
            run.features, *(list(store.entity(t).id_map) for t in (decl.head_type, decl.tail_type)),
            split=self.split_record(run.seed),
        )
        fmg.save_model(os.path.join(self.out_dir, "model.npz"), model)
        run.trace.to_jsonl(os.path.join(self.out_dir, "trace.jsonl"))


def run_pipeline(config, out_dir, cache_dir=None):
    """Execute every stage and write metrics.json, model.npz and trace.jsonl."""
    if config.repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {config.repeats}")
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
