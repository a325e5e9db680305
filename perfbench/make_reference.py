"""Regenerate perfbench/reference.json: the outputs the output checks compare against.

    python3 perfbench/make_reference.py

For each workload and each data seed of its pool it runs the workload's
command (the same set-up and command as run.py), and stores the pinned part
of ``MetricsReport.comparable()`` (pipeline workloads) or per-metagraph
``[nnz, sum]`` (the similarity workload), keyed by data seed.  Run it on the
commit whose outputs are the reference; the checks then hold later commits to
it within the tolerances in child.py.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def reference_for(name, data_seed, work):
    wl = workloads.workload(name)
    shutil.rmtree(work, ignore_errors=True)
    env = run.child_env()
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "setup", name, str(data_seed), work],
                   cwd=run.ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    data_dir = os.path.join(work, "data")
    out_dir = os.path.join(work, "out")
    cache_dir = os.path.join(work, "cache") if wl["cache"] == "warm" else os.path.join(out_dir, "cache")
    request = {"data_seed": data_seed, "data_dir": data_dir, "out_dir": out_dir,
               "cache_dir": cache_dir, "stdout": os.path.join(work, "stdout.txt")}
    with open(request["stdout"], "w") as out:
        subprocess.run([sys.executable, "-m", "hinfuse.cli", wl["command"], "--config",
                        os.path.join(data_dir, "config.json"), "--out-dir", out_dir, "--cache-dir", cache_dir],
                       cwd=run.ROOT, env=env, check=True, stdout=out, stderr=subprocess.DEVNULL)
    if wl["command"] == "pipeline":
        problems, info = child.check_pipeline(wl, request, None)
        value = child.reference_view(info["comparable"])
    else:
        problems, info = child.check_similarity(request, None, full=True)
        value = info["stats"]
    if problems:
        raise RuntimeError(f"{name} data seed {data_seed}: {problems}")
    return value


def main():
    out = os.path.join(HERE, "reference.json")
    refs = {}
    work = os.path.join(run.ROOT, ".perfbench", f"reference-{os.getpid()}")
    try:
        for name in workloads.names():
            for data_seed in range(workloads.workload(name)["pool"]):
                refs.setdefault(name, {})[str(data_seed)] = reference_for(name, data_seed, work)
                print(f"{name} data seed {data_seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
