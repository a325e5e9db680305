"""In-memory span tracing around hinfuse's public functions.

The pipeline calls every layer through module attributes (``metagraph.
execute_plan``, ``fmg.augmented_grad``, ...), and functions inside a module
call each other through the module's globals.  Replacing those attributes
with thin wrappers therefore sees every call without touching the library.

Each wrapped call appends one span ``(name, start, end, parent, label)`` to
a list; nothing is written until :meth:`Tracer.write_spans`.  Per-layer
metrics are derived afterwards from the spans and from the small result
observations recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

from workloads import METAGRAPHS, STAGES

LAYERS = ("hin", "metagraph", "factors", "fmg", "solvers", "pipeline")


def _label(name, args, kwargs):
    """Span label: the metagraph for per-metagraph calls, the stage for stage spans."""
    if name == "metagraph.compile_plan":
        return args[0].name
    if name == "metagraph.execute_plan":
        return args[0].metagraph
    if name in ("factors.factorize_mf", "factors.factorize_nnr"):
        return kwargs.get("name", "")
    if name == "pipeline.stage":
        return args[1]  # (self, stage, fn)
    return None


class Tracer:
    """Wraps the public functions of the given modules and records spans."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent index, label]
        self.stack = []
        self.originals = []
        self.observed = defaultdict(list)  # function name -> per-call observations
        self.executed = []  # (plan, store) pairs, for the slot-size pass after the run

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), None, parent, _label(name, args, kwargs)]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._observe(name, args, result)
            return result

        return wrapper

    def install(self):
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                self.originals.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", obj))
            if layer == "pipeline":
                # Stage boundaries: the CLI commands and run_pipeline both run
                # every stage body through _Stages.timed(stage, fn).
                stages = module._Stages
                self.originals.append((stages, "timed", stages.timed))
                stages.timed = self._wrap("pipeline.stage", stages.timed)

    def uninstall(self):
        for owner, attr, obj in reversed(self.originals):
            setattr(owner, attr, obj)
        self.originals = []

    # -- observations at the same boundaries -------------------------------

    def _observe(self, name, args, result):
        obs = self.observed[name]
        if name == "metagraph.execute_plan":
            sim = result[0] if isinstance(result, tuple) else result
            obs.append((args[0].metagraph, int(sim.nnz)))
            self.executed.append((args[0], args[1]))
        elif name == "metagraph.save_similarity":
            obs.append(os.path.getsize(args[0]))
        elif name in ("factors.factorize_mf", "factors.factorize_nnr"):
            obs.append((result.metagraph, len(result.objective_history) - 1))
        elif name == "fmg.assemble_features":
            obs.append(int(result[0].X.nbytes))
        elif name == "solvers.train":
            records = result[1].records
            branches = [r.extra.get("branch") for r in records]
            obs.append(
                (
                    len(records),
                    float(records[-1].grad_evals) if records else 0.0,
                    sum(1 for b in branches if b is not None and b != "extrapolated"),
                    sum(1 for b in branches if b is not None),
                )
            )

    def max_step_nnz(self, execute_plan):
        """Largest intermediate per metagraph, from an untimed ``keep_slots`` re-run."""
        out = {}
        for plan, store in self.executed:
            _, slots = execute_plan(plan, store, keep_slots=True)
            out[plan.metagraph] = max(out.get(plan.metagraph, 0), max(int(s.nnz) for s in slots))
            del slots
        return out

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, label in self.spans:
                fh.write(json.dumps([name, start, end, parent, label]) + "\n")

    def root_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def layer_metrics(self):
        """Per-layer metrics from the spans and observations; absent work reads 0."""
        total = defaultdict(float)
        calls = defaultdict(int)
        by_label = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, label in self.spans:
            total[name] += end - start
            calls[name] += 1
            if label is not None:
                by_label[(name, label)] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_time[name.split(".", 1)[0]] += (end - start) - covered

        m = {}
        m["hin.ingest_s"] = total["hin.ingest"]
        m["hin.split_s"] = total["hin.split_ratings"]

        m["metagraph.compile_s"] = total["metagraph.compile_plan"]
        m["metagraph.execute_s"] = total["metagraph.execute_plan"]
        result_nnz = dict(self.observed["metagraph.execute_plan"])
        for mg in METAGRAPHS:
            m[f"metagraph.execute_s.{mg}"] = by_label[("metagraph.execute_plan", mg)]
            m[f"metagraph.result_nnz.{mg}"] = result_nnz.get(mg, 0)
        m["metagraph.save_s"] = total["metagraph.save_similarity"]
        m["metagraph.cache_mb"] = sum(self.observed["metagraph.save_similarity"]) / 2**20
        m["metagraph.load_s"] = total["metagraph.load_similarity"]
        m["metagraph.load_calls"] = calls["metagraph.load_similarity"]

        fits = ("factors.factorize_mf", "factors.factorize_nnr")
        iters = {}
        for fit in fits:
            iters.update(dict(self.observed[fit]))
        fit_s = sum(total[f] for f in fits)
        m["factors.fit_s"] = fit_s
        for mg in METAGRAPHS:
            m[f"factors.fit_s.{mg}"] = sum(by_label[(f, mg)] for f in fits)
            m[f"factors.iters.{mg}"] = iters.get(mg, 0)
        n_iters = sum(iters.values())
        m["factors.s_per_iter"] = fit_s / n_iters if n_iters else 0.0
        evals = calls["factors.mf_value_and_grad"]
        m["factors.mf_evals"] = evals
        mf_iters = sum(i for _, i in self.observed["factors.factorize_mf"])
        m["factors.accept_ratio"] = mf_iters / evals if evals else 0.0
        m["factors.save_s"] = total["factors.save_factor_side"]
        m["factors.load_s"] = total["factors.load_factor_pair"]

        m["fmg.assemble_s"] = total["fmg.assemble_features"]
        m["fmg.feature_mb"] = max(self.observed["fmg.assemble_features"], default=0) / 2**20
        m["fmg.grad_s"] = total["fmg.augmented_grad"]
        m["fmg.grad_calls"] = calls["fmg.augmented_grad"]
        m["fmg.objective_s"] = total["fmg.objective"]
        m["fmg.objective_calls"] = calls["fmg.objective"]
        m["fmg.prox_s"] = total["fmg.prox_group"]
        m["fmg.predict_s"] = total["fmg.predict_batch"]

        runs = self.observed["solvers.train"]
        train_s = total["solvers.train"]
        grad_evals = sum(r[1] for r in runs)
        branch_iters = sum(r[3] for r in runs)
        m["solvers.train_s"] = train_s
        m["solvers.iters"] = sum(r[0] for r in runs)
        m["solvers.grad_evals"] = grad_evals
        m["solvers.s_per_grad_eval"] = train_s / grad_evals if grad_evals else 0.0
        m["solvers.fallback_ratio"] = sum(r[2] for r in runs) / branch_iters if branch_iters else 0.0

        for stage in STAGES:
            m[f"pipeline.stage_span_s.{stage}"] = by_label[("pipeline.stage", stage)]
        computed = calls["metagraph.execute_plan"] + sum(calls[f] for f in fits)
        hits = calls["metagraph.load_similarity"] + calls["factors.load_factor_pair"]
        m["pipeline.cache_hit_ratio"] = hits / (hits + computed) if hits + computed else 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        return m
