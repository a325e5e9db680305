"""The benchmark harness (perfbench/) runs against the library as it stands.

The harness calls hinfuse through its public functions and patches some of them
(``perfbench/tracer.py``), so a change to those calls can break the benchmark
while every other test passes.  These tests run the harness's own child process,
as ``perfbench/run.py`` does, on a tiny dataset.
"""

import json
import os
import subprocess
import sys

import pytest

from hinfuse import synth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
METAGRAPHS = [f"M{i}" for i in range(1, 10)]

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def workload_config(name):
    with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as fh:
        config = json.load(fh)["workloads"][name]["config"]
    return {"schema": "schema.json", "metagraphs": "metagraphs.txt", **config}


def child(*args, stdout=None):
    """Run ``perfbench/child.py`` with ``args`` from the repository root, as the harness does."""
    return subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, stdout=stdout or subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    synth.write_review_dataset(str(root), seed=0, n_users=60, n_items=40)
    # child.py check reads the request's config from config.json in its data directory
    for name, workload in (("config.json", "sim-large"), ("pipeline.json", "cold-mf")):
        (root / name).write_text(json.dumps(workload_config(workload)))
    return root


def traced(data, out, command, config):
    """Trace one CLI command through the harness; return the request record and the process."""
    out.mkdir()
    request = {"data_seed": 0, "data_dir": str(data), "out_dir": str(out), "cache_dir": str(out / "cache"),
               "stdout": str(out / "stdout.txt")}
    with open(request["stdout"], "w", encoding="utf-8") as fh:
        proc = child("trace", str(out / "layers.json"), str(out / "spans.jsonl"), command,
                     "--config", str(data / config), "--out-dir", str(out), "--cache-dir", request["cache_dir"],
                     stdout=fh)
    return request, proc


def test_similarity_trace_and_check(data, tmp_path):
    request, proc = traced(data, tmp_path / "out", "similarity", "config.json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads((tmp_path / "out" / "layers.json").read_text())["metrics"]
    for name in METAGRAPHS:
        assert metrics[f"metagraph.result_nnz.{name}"] > 0, name
        assert metrics[f"metagraph.max_step_nnz.{name}"] > 0, name

    # the stored references are for the workload's larger data, so only their figures may differ
    (tmp_path / "requests.json").write_text(json.dumps({"workload": "sim-large", "requests": [request]}))
    proc = child("check", str(tmp_path / "requests.json"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    verdict, = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["brute_force_pairs"] == 32, verdict
    assert all(" vs reference " in problem for problem in verdict["problems"]), verdict["problems"]


def test_pipeline_trace(data, tmp_path):
    _, proc = traced(data, tmp_path / "out", "pipeline", "pipeline.json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())["rmse"]["test"] > 0
