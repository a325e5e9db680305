"""Steadiness self-test: two independent sets of runs of one commit agree.

    python3 -m pytest perfbench/test_steadiness.py -q

For every workload in BENCHMARK.json it makes two sets of untraced runs over
``SEEDS`` seeds with the benchmark's own command and ``run_seconds``.  It
asserts that every run is correct with no failed request, that within each
set the quartile spread of every end-to-end metric except ``setup_s`` stays
within the metric's bound (the benchmark contract holds only the medians of
``setup_s`` to its bound), and that the two sets' medians of every metric
agree within the bound.  A set of runs takes about 30 s per seed and
workload, so this is not part of the tier-1 suite (pytest's testpaths is
``tests``); select one workload with ``-k``, e.g. ``-k cold-mf``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

SEEDS = 5


def one_run(workload, seed):
    argv = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, proc.stderr[-2000:])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_two_sets_agree_within_bounds(workload):
    sets = [[one_run(workload, seed) for seed in range(SEEDS)] for _ in range(2)]
    for metric in BENCH["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second = ([run[name] for run in runs] for runs in sets)
        if name != "setup_s":
            for values in (first, second):
                assert spread(values) <= bound, f"{workload} {name}: spread {spread(values):.3f} > {bound}"
        m1, m2 = statistics.median(first), statistics.median(second)
        assert abs(m2 - m1) <= bound * m1, f"{workload} {name}: medians {m1:.4g} vs {m2:.4g}"
