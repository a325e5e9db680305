"""Digest what the benchmark's datasets make, to show that a change keeps every output byte-identical.

For each dataset it runs ``perfbench/child.py setup <workload> <data seed> <dir>``, which writes the
dataset and fills a warm workload's cache, and then the workload's CLI command as
``perfbench/run.py`` issues it, in the harness's environment (one BLAS thread, ``PYTHONHASHSEED=0``).
It prints one line per dataset, ``<workload> <data seed> <sha256>``, where the hash covers:

* every file of the cache directory (the ``sim_*`` and ``fac_*`` files), by sorted name, as
  ``child.cache_digest`` hashes them;
* per pipeline run (a warm workload's set-up run first): ``model.npz``, ``comparable()`` of its
  ``metrics.json`` as sorted-key JSON, and ``trace.jsonl`` without ``seconds``;
* the similarity command's stdout.

Usage, from any directory::

    python3 tools/output_digest.py                    # every pipeline pool, sim-large data seeds 0-1
    python3 tools/output_digest.py cold-mf:0,3 sim-large

Run it in two checkouts and diff what they print: an empty diff means byte-identical outputs.
It reads ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.dont_write_bytecode = True  # import the harness's modules without writing into perfbench/
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SIM_LARGE_SEEDS = (0, 1)


def datasets(selectors):
    """``(workload, data seed)`` pairs: every pipeline workload's pool and sim-large's
    :data:`SIM_LARGE_SEEDS`, or what the ``workload[:seed,...]`` selectors name."""
    if not selectors:
        selectors = [name for name in workloads.names() if workloads.workload(name)["command"] == "pipeline"]
        selectors.append("sim-large")
    pairs = []
    for selector in selectors:
        name, _, seeds = selector.partition(":")
        if name not in workloads.names():
            raise SystemExit(f"unknown workload {name!r}; pick one of {workloads.names()}")
        wl = workloads.workload(name)
        default = range(wl["pool"]) if wl["command"] == "pipeline" else SIM_LARGE_SEEDS
        pairs += [(name, int(seed)) for seed in seeds.split(",")] if seeds else [(name, s) for s in default]
    return pairs


def _run(argv, env):
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _update_run(h, out_dir):
    """Hash a pipeline run's model, comparable metrics and trace records without their seconds."""
    with open(os.path.join(out_dir, "model.npz"), "rb") as fh:
        h.update(fh.read())
    comparable = child.report_from_metrics(os.path.join(out_dir, "metrics.json")).comparable()
    h.update(json.dumps(comparable, sort_keys=True).encode())
    with open(os.path.join(out_dir, "trace.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("seconds")
            h.update(json.dumps(record, sort_keys=True).encode())


def digest(name, data_seed, env):
    """The SHA-256 over one dataset's outputs."""
    wl = workloads.workload(name)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        _run([sys.executable, os.path.join(PERFBENCH, "child.py"), "setup", name, str(data_seed), work], env)
        out_dir = os.path.join(work, "out")
        cache_dir = os.path.join(work, "cache") if wl["cache"] == "warm" else os.path.join(out_dir, "cache")
        stdout = _run([sys.executable, "-m", "hinfuse.cli", wl["command"],
                       "--config", os.path.join(work, "data", "config.json"),
                       "--out-dir", out_dir, "--cache-dir", cache_dir], env)
        h.update(child.cache_digest(cache_dir).encode())
        if wl["command"] == "pipeline":
            if wl["cache"] == "warm":
                _update_run(h, os.path.join(work, "fill"))
            _update_run(h, out_dir)
        else:
            h.update(stdout.encode())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("datasets", nargs="*", metavar="workload[:seed,...]",
                        help="datasets to digest (default: every pipeline pool and sim-large data seeds 0-1)")
    args = parser.parse_args(argv)
    env = run.child_env()
    for name, data_seed in datasets(args.datasets):
        print(name, data_seed, digest(name, data_seed, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
