"""Child-process side of the benchmark: set-up, traced runs and output checks.

Every step that imports hinfuse runs here, in a process of its own, so the
parent only starts, times and limits children.  Usage (from run.py):

    python3 perfbench/child.py setup <workload> <data_seed> <dir>
    python3 perfbench/child.py trace <result.json> <spans.jsonl> <cli args...>
    python3 perfbench/child.py check <requests.json>

``setup`` and ``check`` print one JSON line; ``trace`` writes its result file
and exits with the CLI's status.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from hinfuse import cli, factors, fmg, hin, metagraph, pipeline, solvers, synth  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# The similarity command reports its own cache use; pipeline runs report it in metrics.json.
SIM_LINE = re.compile(r"^(M\d+): (\d+)x(\d+), nnz=(\d+) \((cached|computed)\)$")
BRUTE_FORCE_METAGRAPHS = ("M1", "M2", "M3", "M4")
BRUTE_FORCE_PAIRS = 4  # per metagraph: this many stored entries plus this many random pairs

# Stated tolerances for MetricsReport.comparable() against the reference.
RMSE_TOL = 0.005  # absolute, on every RMSE in the report
NNZ_TOL = 0.02  # absolute, on every parameter-sparsity ratio


def write_config(path, doc):
    full = {"schema": "schema.json", "metagraphs": "metagraphs.txt", **doc}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2)


def cmd_setup(workload, data_seed, directory):
    """Generate the dataset and its configs; for a warm workload also fill the cache."""
    wl = workloads.workload(workload)
    start = time.perf_counter()
    data = os.path.join(directory, "data")
    synth.write_review_dataset(data, seed=data_seed, **wl["generator"])
    write_config(os.path.join(data, "config.json"), wl["config"])
    if wl["cache"] == "warm":
        write_config(os.path.join(data, "fill.json"), workloads.workload(wl["fill_config"])["config"])
        cfg = pipeline.ExperimentConfig.from_json(os.path.join(data, "fill.json"))
        pipeline.run_pipeline(cfg, os.path.join(directory, "fill"), os.path.join(directory, "cache"))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def cmd_trace(result_path, spans_path, argv):
    """Run one CLI command with every public hinfuse function wrapped."""
    tracer = Tracer([hin, metagraph, factors, fmg, solvers, pipeline])
    tracer.install()
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
    finished = time.perf_counter()
    metrics = tracer.layer_metrics()
    step_nnz = tracer.max_step_nnz(metagraph.execute_plan)
    for name in workloads.METAGRAPHS:
        metrics[f"metagraph.max_step_nnz.{name}"] = step_nnz.get(name, 0)
    tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": metrics,
            "root_s": tracer.root_seconds(),
            "spans": len(tracer.spans),
            # time spent here after the command, which the parent takes off the traced wall time
            "post_s": time.perf_counter() - finished,
        }, fh)
    return status


# -- output checks -------------------------------------------------------------


def report_from_metrics(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rm = doc["rmse"]
    return pipeline.MetricsReport(
        rmse_train=rm["train"], rmse_valid=rm["valid"], rmse_test=rm["test"],
        rmse_test_std=rm["test_std"], nnz=doc["nnz"], selected_lambda=doc["selected_lambda"],
        groups=doc["groups"], lambda_series=doc["lambda_series"],
        stage_seconds=doc["stage_seconds"], cache_events=doc["cache_events"],
        repeats=doc["repeats"],
    )


def reference_view(comp):
    """The parts of MetricsReport.comparable() that the reference pins."""
    return {
        "rmse": {k: comp["rmse"][k] for k in ("train", "valid", "test")},
        "nnz": comp["nnz"],
        "selected_lambda": comp["selected_lambda"],
        "lambda_series": [[e["lambda"], e["rmse_valid"], e["nnz"]] for e in comp["lambda_series"]],
        "groups": [[g["group"], g["w_selected"], g["v_selected"]] for g in comp["groups"]],
    }


def compare_to_reference(view, ref):
    """Differences between two reference views beyond the stated tolerances."""
    problems = []
    for split in ("train", "valid", "test"):
        if abs(view["rmse"][split] - ref["rmse"][split]) > RMSE_TOL:
            problems.append(f"rmse.{split} {view['rmse'][split]:.5f} vs {ref['rmse'][split]:.5f}")
    if abs(view["nnz"] - ref["nnz"]) > NNZ_TOL:
        problems.append(f"nnz {view['nnz']:.4f} vs {ref['nnz']:.4f}")
    if view["selected_lambda"] != ref["selected_lambda"]:
        problems.append(f"selected_lambda {view['selected_lambda']} vs {ref['selected_lambda']}")
    if [e[0] for e in view["lambda_series"]] != [e[0] for e in ref["lambda_series"]]:
        problems.append("lambda grid differs")
    for (lam, rmse_valid, nnz), (_, want_rmse, want_nnz) in zip(view["lambda_series"], ref["lambda_series"]):
        if abs(rmse_valid - want_rmse) > RMSE_TOL or abs(nnz - want_nnz) > NNZ_TOL:
            problems.append(f"lambda={lam}: rmse_valid/nnz {rmse_valid:.5f}/{nnz:.4f} "
                            f"vs {want_rmse:.5f}/{want_nnz:.4f}")
    if view["groups"] != ref["groups"]:
        problems.append("selected groups differ")
    return problems


def mean_predictor_rmse(config_path):
    """Test RMSE of predicting the training mean: the floor any model must beat."""
    cfg = pipeline.ExperimentConfig.from_json(config_path)
    _, ratings, _ = hin.ingest(cfg.schema)
    train, _, test = hin.split_ratings(ratings, cfg.fractions, cfg.seed)
    return float(np.sqrt(np.mean((test.values - np.mean(train.values)) ** 2)))


def check_pipeline(wl, request, reference):
    problems = []
    report = report_from_metrics(os.path.join(request["out_dir"], "metrics.json"))
    comp = report.comparable()
    want_hit = wl["cache"] == "warm"
    for kind in ("similarity", "factorize"):
        events = report.cache_events.get(kind, [])
        if len(events) != len(workloads.METAGRAPHS) or any(e["hit"] != want_hit for e in events):
            problems.append(f"cache pattern: {kind} hits {[e['hit'] for e in events]}")
    rmses = [comp["rmse"][s] for s in ("train", "valid", "test")]
    if not all(isinstance(v, float) and math.isfinite(v) for v in rmses):
        problems.append(f"non-finite rmse {rmses}")
    else:
        floor = mean_predictor_rmse(os.path.join(request["data_dir"], "config.json"))
        if comp["rmse"]["test"] >= floor:
            problems.append(f"rmse.test {comp['rmse']['test']:.4f} not below mean predictor {floor:.4f}")
    if reference is not None:
        problems += compare_to_reference(reference_view(comp), reference)
    return problems, {"comparable": comp, "rmse_test": report.rmse_test}


def cache_digest(cache_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(cache_dir)):
        h.update(name.encode())
        with open(os.path.join(cache_dir, name), "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def cached_similarities(request):
    """Read the run's similarities back through the pipeline's own cache lookup."""
    cfg = pipeline.ExperimentConfig.from_json(os.path.join(request["data_dir"], "config.json"))
    stages = pipeline._Stages(cfg, os.path.join(request["out_dir"], "check"), request["cache_dir"])
    store, ratings, decl, specs, _ = stages.ingest()
    train, _, _ = stages.split(ratings, cfg.seed)
    sims = stages.similarities(store, train, decl, specs, cfg.seed)
    return cfg, specs, sims, all(e["hit"] for e in stages.cache_events["similarity"])


def similarity_stats(sims):
    return {s.metagraph: [int(s.nnz), float(s.matrix.sum())] for s in sims}


def check_similarity(request, reference, full):
    """Printed report, cache contents, reference nnz/sums and the brute-force oracle."""
    problems = []
    with open(request["stdout"], encoding="utf-8") as fh:
        lines = [SIM_LINE.match(line.strip()) for line in fh if line.strip()]
    printed = {m.group(1): (int(m.group(4)), m.group(5)) for m in lines if m}
    if sorted(printed) != sorted(workloads.METAGRAPHS):
        problems.append(f"printed metagraphs {sorted(printed)}")
    if any(status != "computed" for _, status in printed.values()):
        problems.append("cache pattern: a similarity was read from cache on a cold run")
    info = {"digest": cache_digest(request["cache_dir"])}
    if not full:
        return problems, info

    cfg, specs, sims, all_hit = cached_similarities(request)
    if not all_hit:
        problems.append("cached similarities missing after the run")
    stats = info["stats"] = similarity_stats(sims)
    for name, (nnz, _) in stats.items():
        if printed.get(name, (None,))[0] != nnz:
            problems.append(f"{name}: printed nnz {printed.get(name)} vs cached {nnz}")
    if reference is not None:
        for name, (nnz, total) in reference.items():
            got = stats.get(name)
            if got is None or got[0] != nnz or abs(got[1] - total) > 1e-9 * max(1.0, abs(total)):
                problems.append(f"{name}: nnz/sum {got} vs reference {[nnz, total]}")

    # oracle on the train-split store, rebuilt independently of the pipeline
    store, ratings, decl = hin.ingest(cfg.schema)
    train, _, _ = hin.split_ratings(ratings, cfg.fractions, cfg.seed)
    hin.attach_ratings(store, train, decl, binarize=cfg.binarize_ratings)
    rng = np.random.default_rng(request["data_seed"])
    by_name = {s.name: s for s in specs}
    checked = 0
    for sim in sims:
        if sim.metagraph not in BRUTE_FORCE_METAGRAPHS:
            continue
        coo = sim.matrix.tocoo()
        picks = rng.choice(coo.nnz, size=min(BRUTE_FORCE_PAIRS, coo.nnz), replace=False)
        pairs = [(int(coo.row[k]), int(coo.col[k])) for k in picks]
        pairs += [(int(rng.integers(sim.shape[0])), int(rng.integers(sim.shape[1])))
                  for _ in range(BRUTE_FORCE_PAIRS)]
        for u, b in pairs:
            want = metagraph.brute_force_count(by_name[sim.metagraph], store, u, b)
            if want != sim.matrix[u, b]:
                problems.append(f"{sim.metagraph}[{u},{b}] = {sim.matrix[u, b]}, brute force {want}")
            checked += 1
    info["brute_force_pairs"] = checked
    return problems, info


def cmd_check(requests_path):
    """Check every finished request of one run; prints one verdict per request."""
    with open(requests_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    wl = workloads.workload(doc["workload"])
    references = workloads.references().get(doc["workload"], {})
    verdicts = []
    first = {}  # data_seed -> fingerprint of the first successful request
    for request in doc["requests"]:
        reference = references.get(str(request["data_seed"]))
        try:
            if wl["command"] == "pipeline":
                problems, info = check_pipeline(wl, request, reference)
                fingerprint = json.dumps(info["comparable"], sort_keys=True)
            else:
                full = request["data_seed"] not in first
                problems, info = check_similarity(request, reference, full)
                fingerprint = info["digest"]
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc()
            problems, info, fingerprint = [f"{type(exc).__name__}: {exc}"], {}, None
        if reference is None:
            problems.append(f"no reference for data seed {request['data_seed']}; run make_reference.py")
        if fingerprint is not None:
            seen = first.setdefault(request["data_seed"], fingerprint)
            if seen != fingerprint:
                problems.append("output differs from an earlier run on the same input")
        verdicts.append({
            "problems": problems,
            "rmse_test": info.get("rmse_test"),
            "brute_force_pairs": info.get("brute_force_pairs"),
        })
    print(json.dumps(verdicts))
    return 0


def main(argv):
    command, rest = argv[0], argv[1:]
    if command == "setup":
        return cmd_setup(rest[0], int(rest[1]), rest[2])
    if command == "trace":
        return cmd_trace(rest[0], rest[1], rest[2:])
    if command == "check":
        return cmd_check(rest[0])
    raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
