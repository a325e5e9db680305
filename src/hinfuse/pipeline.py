"""End-to-end orchestration: ingest, similarities, factors, training, metrics.

Reads one JSON experiment config, runs the stages in order with per-artifact
disk caching, and writes a metrics report plus model and trace files.
Each similarity matrix goes to its cache file as soon as it is computed and
is dropped before the next metagraph runs, so the process holds at most one
at a time; the later stages know a similarity by its file's record
(:class:`metagraph.SimilarityFile`).  The per-metagraph factorizations and
the per-lambda FM fits run in forked worker processes, one per available
core (see :meth:`Stages.factorize` and :meth:`Stages.train`): a
factorization reads its own similarity file in its worker, and each fit
reports its own record, measured in its worker, to ``metrics.json``.
Similarity matrices are computed over the *training* split's ratings only;
every other relation is used whole, so a held-out rating's review keeps its
edges (``write``, ``about`` and ``mention`` in the bundled Yelp set), and
the review metagraphs M8 and M9 reach held-out pairs through them.  Test
labels are first read in the evaluation stage, when its tables are built
(see :meth:`Stages.table`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import factors, fmg, hin, metagraph, solvers

DEFAULT_LAMBDA_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def report_selected(params, layout, threshold=1e-10):
    """Per-group norms and selected flags for first- and second-order blocks; a group is selected
    when its norm exceeds ``threshold``, a finite number >= 0."""
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be a finite number >= 0, got {threshold}")
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


def _section(name, value):
    """The config section ``name`` (a dict), or a ValueError if it is not a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"config section {name} must be a JSON object")
    return value


@dataclass
class ExperimentConfig:
    """Everything one run needs; each :func:`solvers.setting` field declares a config key, and the
    ``solver`` section sets the :class:`solvers.SolverConfig` fields."""

    schema: str = solvers.setting("schema", "path")
    metagraphs: str = solvers.setting("metagraphs", "path")
    select: list = solvers.setting("select", "names", None)  # subset of metagraph names; None = all
    fractions: tuple = solvers.setting("split.fractions", "numbers", (0.8, 0.1, 0.1))
    seed: int = solvers.setting("split.seed", "int", 0, bound=(">=", 0))
    binarize_ratings: bool = solvers.setting("binarize_ratings", "bool", True)
    log_scale_similarity: bool = solvers.setting("log_scale_similarity", "bool", False)
    # False: the paper-literal left-to-right plans
    optimize_plans: bool = solvers.setting("optimize_plans", "bool", True)
    feature_method: str = solvers.setting("features.method", "str", "mf", choices=("mf", "nnr"))
    rank: int = solvers.setting("features.rank", "int", 10, bound=(">=", 1))
    mu: float = solvers.setting("features.mu", "float", 0.01, bound=(">=", 0))
    max_rank: int = solvers.setting("features.max_rank", "int", 10, bound=(">=", 1))  # NNR feature cap
    # per-column z-scoring fit on train
    standardize_features: bool = solvers.setting("features.standardize", "bool", False)
    K: int = solvers.setting("fm.K", "int", 10, bound=(">=", 1))
    mode: str = solvers.setting("fm.mode", "str", "convex", choices=("convex", "lsp"))
    lambdas: tuple = solvers.setting("fm.lambda", "numbers", DEFAULT_LAMBDA_GRID, bound=(">=", 0))
    solver: solvers.SolverConfig = field(default_factory=solvers.SolverConfig)
    repeats: int = solvers.setting("repeats", "int", 1, bound=(">=", 1))

    def __post_init__(self):
        solvers.check_settings(self)
        repeated = sorted({name for name in self.select or () if self.select.count(name) > 1})
        if repeated:
            raise ValueError(f"select names {', '.join(repeated)} more than once")
        if not self.lambdas:
            raise ValueError("lambda grid is empty; give at least one value")
        hin.check_fractions(self.fractions)
        if self.feature_method == "nnr" and self.mu == 0:
            raise ValueError(f"features.mu must be > 0 for nnr, got {self.mu}")

    @classmethod
    def from_dict(cls, doc, base_dir="."):
        """Config from a parsed JSON document; absent keys keep the field defaults, unknown ones fail.
        Each key sets the field that declares it; paths are relative to ``base_dir`` and must exist."""
        owners = {tuple(spec.metadata["key"].split(".")): (owner, spec)
                  for owner in (cls, solvers.SolverConfig) for spec in fields(owner) if spec.metadata}
        sections = {path[0] for path in owners if len(path) == 2}
        given = {}
        for name, value in _section("top level", doc).items():
            if name in sections:
                given.update(((name, key), item) for key, item in _section(name, value).items())
            else:
                given[(name,)] = value
        unknown = sorted(".".join(path) for path in set(given) - set(owners))
        if unknown:
            raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
        values = {cls: {}, solvers.SolverConfig: {}}
        for path, value in given.items():
            owner, spec = owners[path]
            values[owner][spec.name] = value
        for owner, spec in owners.values():
            if spec.default is MISSING and spec.name not in values[owner]:
                raise ValueError(f"config lacks {spec.metadata['key']!r}")
        cfg = cls(**values[cls], solver=solvers.SolverConfig(**values[solvers.SolverConfig]))
        for spec in fields(cfg):
            if spec.metadata.get("kind") == "path":
                path = os.path.join(base_dir, getattr(cfg, spec.name))
                if not os.path.exists(path):
                    raise ValueError(f"config references a missing file: {path}")
                setattr(cfg, spec.name, path)
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
    train_events: list = field(default_factory=list)
    repeats: list = field(default_factory=list)
    memory: dict = field(default_factory=dict)

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
            "train_events": self.train_events,
            "repeats": self.repeats,
            "memory": self.memory,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def comparable(self):
        """Everything except timings, memory and cache bookkeeping (for determinism checks)."""
        doc = self.to_dict()
        doc.pop("stage_seconds")
        doc.pop("cache_events")
        doc.pop("train_events")
        doc.pop("memory")
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
    sims: list = None  # metagraph.SimilarityFile per metagraph: the cache file, not the matrix
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


def _fit(config, sim_file, seed):
    """Factor the similarity matrix in ``sim_file`` (a :class:`metagraph.SimilarityFile`) under
    ``config``: ``(pair, record)``, where the record gives the seconds spent reading the file, the
    fit's seconds (observed matrix and solver loop), its iterations, its final objective and the
    layout its evaluations ran on ("dense" or "csr", see :mod:`hinfuse.factors`)."""
    start = time.perf_counter()
    matrix = sim_file.matrix
    read_s = time.perf_counter() - start
    start = time.perf_counter()
    obs = factors.ObservedMatrix.from_csr(matrix)
    if config.feature_method == "mf":
        pair = factors.factorize_mf(obs, config.rank, config.mu, seed=seed, name=sim_file.metagraph)
        layout = "csr" if obs.dense is None else "dense"
    else:
        pair = factors.factorize_nnr(obs, config.mu, seed=seed, max_rank=config.max_rank,
                                     name=sim_file.metagraph)
        layout = "csr"
    return pair, {"read_s": read_s, "fit_s": time.perf_counter() - start,
                  "iters": len(pair.objective_history) - 1, "objective": float(pair.objective_history[-1]),
                  "layout": layout}


def _train(train_table, valid_table, layout, reg, K, solver_cfg, rating_range):
    """Fit the FM under ``reg`` from the solver's fresh start: ``(params, trace, record)``, where
    the record gives the fit's seconds (problem and solver loop) and the iteration and
    gradient-evaluation count of its last trace record, which every trainer takes at ``params``."""
    start = time.perf_counter()
    problem = solvers.TrainProblem(train_table, layout, reg, K, valid=valid_table, clip_range=rating_range)
    params, trace = solvers.train(problem, solver_cfg)
    last = trace.records[-1]
    return params, trace, {"train_s": time.perf_counter() - start, "iters": last.iteration,
                           "grad_evals": last.grad_evals}


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def _available_cores():
    """The number of CPUs this process may run on (its affinity mask, so ``taskset`` limits it)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _openblas_thread_calls():
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS loaded in this process.

    numpy and scipy each bundle their own OpenBLAS (``libscipy_openblas64_`` and
    ``libscipy_openblas``), so the libraries are found by path in /proc/self/maps;
    where that file does not exist the list is empty.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in os.path.basename(line.rstrip())})
    except OSError:
        return []
    calls = []
    for path in paths:
        lib = ctypes.CDLL(path)  # the already loaded copy: dlopen hands back its handle
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            calls.append((set_threads, get_threads))
            break
    return calls


_worker_jobs = None  # set only in a forked worker, by _start_worker: the jobs it may run


def _start_worker(jobs):
    """Pool initializer: keep the inherited jobs and pin every OpenBLAS to one thread, so
    workers on separate cores do not each spin up BLAS threads that compete for the same cores."""
    global _worker_jobs
    _worker_jobs = jobs
    for set_threads, _ in _openblas_thread_calls():
        set_threads(1)


def _run_job(index):
    return _worker_jobs[index]()


def _in_workers(jobs, sizes):
    """``[job() for job in jobs]``, computed in forked worker processes, one per available core.

    The pipeline runs its factorizations and its lambda fits through here.  The workers
    inherit ``jobs`` through fork, so only an index goes to each and only the results come
    back pickled; what a job does in its worker (a traced call, a counter) stays there, so
    a job returns any record of its own work with its result.  The largest job (by
    ``sizes``) is submitted first, and the results are read in job order, so the first
    failing job in that order raises.  On any exit the pending jobs are cancelled and the
    workers joined.  Where fork is unavailable the jobs run here, one after another.
    """
    if not jobs:  # every fit was a cache hit: import nothing, start no pool
        return []
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [job() for job in jobs]
    pool = ProcessPoolExecutor(min(len(jobs), _available_cores()),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(jobs,))
    try:
        order = sorted(range(len(jobs)), key=lambda i: -sizes[i])
        futures = {i: pool.submit(_run_job, i) for i in order}
        return [futures[i].result() for i in range(len(jobs))]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class Stages:
    """The pipeline's stages; :meth:`run` is the one sequence run_pipeline and the CLI share."""

    def __init__(self, config, out_dir, cache_dir=None):
        self.config = config
        self.out_dir = out_dir
        self.cache_dir = cache_dir or os.path.join(out_dir, "cache")
        os.makedirs(self.out_dir, exist_ok=True)
        self.stage_seconds = {}
        self.cache_events = {"similarity": [], "factorize": []}
        self.train_events = []  # one record per lambda fit, in grid order
        # peak RSS in MB: the process's at construction (its imports), then, per stage, its own
        # and its reaped workers' high-water marks when the stage last returned
        self.memory = {"floor_mb": _peak_rss_mb(resource.RUSAGE_SELF), "stages": {}}
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
        self.memory["stages"][stage] = {"self_mb": _peak_rss_mb(resource.RUSAGE_SELF),
                                        "children_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
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
        """One :class:`metagraph.SimilarityFile` per metagraph, read from the cache or computed.

        A similarity whose file exists is known by the file's record, and its entries are not
        read.  Every missing one is compiled before any executes, so a metagraph that cannot be
        compiled fails the stage, named in the message, before anything is computed or written.
        Each is then computed, written to the cache and dropped before the next metagraph runs,
        so the stage holds at most one matrix at a time.  The train ratings are attached to
        ``store`` only if some similarity is computed, the one use they have here.  The cache
        event's ``hit`` says whether the file existed.
        """
        cfg = self.config
        os.makedirs(self.cache_dir, exist_ok=True)
        for spec in specs:
            if (spec.source_type, spec.sink_type) != (rating_decl.head_type, rating_decl.tail_type):
                raise ValueError(
                    f"metagraph {spec.name!r} runs {spec.source_type}->{spec.sink_type}, but "
                    f"ratings connect {rating_decl.head_type}->{rating_decl.tail_type}"
                )
        paths = []
        for spec in specs:
            key = _key(
                "similarity", self.fingerprint, metagraph.format_metagraph(spec),
                cfg.fractions, seed, cfg.binarize_ratings, cfg.log_scale_similarity,
                cfg.optimize_plans,
            )
            paths.append(os.path.join(self.cache_dir, f"sim_{spec.name}_{key}.npz"))
        hits = [os.path.exists(path) for path in paths]
        if not all(hits):
            hin.attach_ratings(store, train_ratings, rating_decl, binarize=cfg.binarize_ratings)
        plans = []
        for spec, hit in zip(specs, hits):
            try:
                plans.append(None if hit else metagraph.compile_plan(spec, store, optimize=cfg.optimize_plans))
            except (metagraph.PlanCompileError, KeyError) as exc:  # KeyError: an undeclared entity type
                raise metagraph.PlanCompileError(f"{spec.name}: {exc.args[0]}") from exc
        sims = []
        for spec, path, hit, plan in zip(specs, paths, hits, plans):
            sim = metagraph.SimilarityFile.read(path) if hit else self.write_similarity(plan, store, path)
            sims.append(sim)
            self.cache_events["similarity"].append({"metagraph": spec.name, "hit": hit})
        return sims

    def write_similarity(self, plan, store, path):
        """Execute ``plan``, write its similarity to ``path`` and return its file's record;
        the matrix is freed on return."""
        matrix = metagraph.execute_plan(plan, store)
        if self.config.log_scale_similarity:
            np.log1p(matrix.data, out=matrix.data)
        return metagraph.save_similarity(path, matrix, plan.metagraph)

    def factorize(self, sims, seed):
        """One factor pair per :class:`metagraph.SimilarityFile`, read from the cache or fitted.

        The fits are independent, so every cache miss is fitted in a forked worker
        process, one per available core (the affinity mask, so ``taskset`` limits the
        pool), each with its BLAS on one thread; each worker reads its own similarity
        file, and the parent then writes the factor files and cache events in metagraph
        order.  Only the fits read similarity matrices, so a run whose factor files all
        hit reads none.  Each extra worker adds one fit's working set (its similarity
        matrix, the observed matrix in the form its evaluations run on, dense or CSR,
        with its buffers, and the factors) to the peak memory.
        """
        cfg = self.config
        os.makedirs(self.cache_dir, exist_ok=True)
        paths = []
        for sim in sims:
            key = _key(
                "factors", self.fingerprint, sim.metagraph, cfg.feature_method,
                cfg.rank if cfg.feature_method == "mf" else cfg.max_rank,  # the width the method reads
                cfg.mu, cfg.fractions, seed, cfg.binarize_ratings, cfg.log_scale_similarity,
            )
            paths.append(os.path.join(self.cache_dir, f"fac_{sim.metagraph}_{key}.npz"))
        hits = [os.path.exists(path) for path in paths]
        misses = [sim for sim, hit in zip(sims, hits) if not hit]
        fitted = iter(_in_workers([functools.partial(_fit, cfg, sim, seed) for sim in misses],
                                  [sim.nnz for sim in misses]))
        pairs = []
        for sim, hit, path in zip(sims, hits, paths):
            event = {"metagraph": sim.metagraph, "hit": hit}
            if hit:
                pair = factors.load_factor_pair(path)
            else:
                pair, record = next(fitted)
                event.update(record)
                factors.save_factor_pair(path, pair)
            self.cache_events["factorize"].append(event)
            pairs.append(pair)
        return pairs

    def assemble(self, pairs, train_rs):
        """``(features, layout)``: the factor pairs' entity feature arrays, built once per run
        and, if configured, standardized by a fit on train."""
        features, layout = fmg.factor_blocks(pairs)
        if self.config.standardize_features:
            scaler = fmg.fit_standardizer(self.table(features, train_rs))
            features = fmg.standardize(features, scaler)
        return features, layout

    @staticmethod
    def table(features, rating_set):
        """The split's table: user features by user, item features by item, and its labels."""
        blocks = tuple(zip(features, (rating_set.users, rating_set.items)))
        return fmg.FeatureTable(rating_set.values, blocks)

    def reg_config(self, lam):
        return fmg.RegConfig(mode=self.config.mode, lam_w=lam, lam_v=lam)

    def train(self, features, train_rs, valid_rs, layout):
        """Sweep the lambda grid, select by validation RMSE, return the winner.

        Every lambda's fit is a cold start from the same initial parameters, so the fits run
        in forked worker processes, one per available core, each with its BLAS on one thread
        (see :func:`_in_workers`).  The tables and the rating range are built here, once, before
        the fork, and every worker reads them.  The series and the winner are then taken in
        grid order, and the first fit that fails in that order raises; a fit's validation RMSE
        and nnz ratio are those of its trace's last record.  Each fit's record, measured in its
        worker, goes to ``train_events`` in grid order.
        """
        cfg = self.config
        train_table = self.table(features, train_rs)
        valid_table = self.table(features, valid_rs) if len(valid_rs) else None
        jobs = [functools.partial(_train, train_table, valid_table, layout, self.reg_config(lam), cfg.K,
                                  cfg.solver, self.rating_range) for lam in cfg.lambdas]
        fits = _in_workers(jobs, [1] * len(jobs))  # equal sizes: submitted in grid order
        series = []
        for lam, (_, trace, record) in zip(cfg.lambdas, fits):
            self.train_events.append({"lambda": lam, **record})
            last = trace.records[-1]
            valid_rmse = float("nan") if last.rmse_valid is None else last.rmse_valid
            series.append({"lambda": lam, "rmse_valid": valid_rmse, "nnz": last.nnz})
        best = int(np.argmin([e["rmse_valid"] if np.isfinite(e["rmse_valid"]) else np.inf for e in series]))
        params, trace, _ = fits[best]  # the first lowest finite validation RMSE, else the first fit
        return params, trace, cfg.lambdas[best], series

    @functools.cached_property
    def rating_range(self):
        """The schema's rating scale: ingest checks the ratings against it; predictions are clipped to it."""
        return hin.rating_range(hin.load_schema(self.config.schema))

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
        """What turns a model's raw output into scored predictions: the rating range it is clipped to."""
        return {"rating_range": list(self.rating_range)}

    def evaluate(self, params, features, splits):
        """RMSE per split, scored on the assembled entity features."""
        return {
            role: fmg.clipped_rmse(params, self.table(features, rating_set), self.rating_range)
            if len(rating_set) else None
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
        cache read takes part.  The model's split (seed and fractions) must
        match the config's, or its "test" ratings would include ones it was
        trained on; its rating range must match the schema's; every rated
        user and item must be in the model.  A ratings file other than the
        one it was trained on is refused too: the same seed draws another
        split from it.
        """
        split = self.timed("evaluate", lambda: self.split_record(seed))
        if model.split["ratings_sha256"] != split["ratings_sha256"]:
            raise StageError("evaluate", ValueError(
                "model was trained on another ratings file: its SHA-256 differs from the config's"))
        if model.split != split:
            raise StageError("evaluate", ValueError(
                f"model was trained on the split {model.split}, the config asks for {split}"))
        settings = self.timed("evaluate", self.prediction_settings)
        if model.prediction != settings:
            raise StageError("evaluate", ValueError(
                f"model was trained with {model.prediction}, the schema declares {settings}"))
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
        and its solver trace to out_dir; ``model.npz`` is written atomically (see
        :func:`metagraph.atomic_write`)."""
        store, _, decl, _, _ = self.ingested
        model = fmg.SavedModel(
            run.params, run.layout, self.reg_config(run.lam), self.prediction_settings(),
            run.features, *(list(store.entity(t).id_map) for t in (decl.head_type, decl.tail_type)),
            split=self.split_record(run.seed),
        )
        with metagraph.atomic_write(os.path.join(self.out_dir, "model.npz")) as fh:
            fmg.save_model(fh, model)
        run.trace.to_jsonl(os.path.join(self.out_dir, "trace.jsonl"))


_Stages = Stages  # the name the benchmark harness (perfbench/) constructs and patches the class by


def run_pipeline(config, out_dir, cache_dir=None):
    """Execute every stage and write metrics.json, model.npz and trace.jsonl."""
    stages = Stages(config, out_dir, cache_dir)
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
    if None not in test_rmses:  # an empty test split scores None
        report.rmse_test = float(np.mean(test_rmses))
        report.rmse_test_std = float(np.std(test_rmses)) if len(test_rmses) > 1 else None
    report.stage_seconds = stages.stage_seconds
    report.cache_events = stages.cache_events
    report.train_events = stages.train_events
    report.memory = stages.memory
    report.save(os.path.join(out_dir, "metrics.json"))
    return report
