"""Workload definitions (workloads.json) and stored references (reference.json)."""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
METAGRAPHS = tuple(f"M{i}" for i in range(1, 10))
STAGES = ("ingest", "split", "similarity", "factorize", "assemble", "train", "evaluate")


def _load(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def workload(name):
    return _load("workloads.json")["workloads"][name]


def names():
    return list(_load("workloads.json")["workloads"])


def references():
    """Reference outputs on the seed code, keyed by workload and then data seed."""
    path = os.path.join(HERE, "reference.json")
    return _load("reference.json") if os.path.exists(path) else {}


def data_seeds(wl, seed, count):
    """Dataset seeds of a run started with ``--seed seed``: ``count`` of the pool, without repeats.

    Every dataset of the pool has a stored reference, so every request of every
    run is checked against one; the same seed and count give the same datasets
    on every commit.
    """
    return random.Random(seed).sample(range(wl["pool"]), count)
