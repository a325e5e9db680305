"""hinfuse benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; hinfuse is imported from its ``src``.  The
workloads are defined in ``perfbench/workloads.json``.  One client issues
one command at a time (a closed loop): each request is a fresh child process
running the hinfuse CLI, with one BLAS thread, ``workers`` left at 1 and an
address-space ceiling, so a blow-up is a counted failure rather than an
out-of-memory kill of the machine.  A workload with one dataset per request
runs ``ceil(--seconds / request_s)`` requests, so every commit times the same
datasets; a workload that repeats one dataset issues requests until their
summed wall time reaches ``--seconds`` (at least ``MIN_REQUESTS``).  Set-up
and output checks run outside the measured time.

``--trace 0`` reports the end-to-end metrics: the median over requests that
repeat one input, the mean over requests that each get their own dataset.
``--trace 1`` runs every request twice on the same input, untraced and then
traced (``child.py trace``), and reports per-layer metrics from the traced
runs plus the tracing overhead.  Every request's outputs are checked
(``child.py check``); a request that fails or fails a check counts in
``failed``.  The last line of standard output is the JSON result; the line
before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MEMORY_CEILING = 3 * 2**30  # bytes of address space per child
BLAS_THREADS = 1
MIN_REQUESTS = 2
SETUPS_PER_RUN = 3  # at least this many set-ups per run; setup_s is their median
INVOCATION_LIMIT_S = 170.0  # stop issuing work so the whole invocation ends within 180 s


def child_env():
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
    )
    return env


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


class Children:
    """Starts one child at a time, times it and reaps it with its resource usage."""

    def __init__(self, started):
        self.started = started
        self.env = child_env()

    def remaining(self):
        return INVOCATION_LIMIT_S - (time.monotonic() - self.started)

    def run(self, argv, stdout_path, stderr_path):
        """Returns (exit code or None on timeout, wall seconds, peak RSS in MB)."""
        timeout = self.remaining()
        if timeout <= 1.0:
            return None, 0.0, 0.0
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=err, preexec_fn=_limit_memory
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if proc.returncode == -9 else proc.returncode
        return code, wall, usage.ru_maxrss / 1024.0


def failure_tag(code, stderr_path):
    """Stage tag of a failed request: the CLI's ``[stage]`` prefix where it gave one."""
    if code is None:
        return "timeout"
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if any("MemoryError" in line for line in lines):
        return "memory"
    if lines and lines[-1].startswith("["):
        return lines[-1][1:].split("]", 1)[0]
    return f"exit {code}"


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "memory_ceiling_gib": MEMORY_CEILING / 2**30,
    }


class Run:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.wl = workloads.workload(name)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".perfbench", f"{name}-seed{seed}-trace{trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.children = Children(time.monotonic())
        self.setup_s = []
        self.requests = []  # finished command runs, untraced and traced
        self.failures = []
        self.skipped = 0  # requests not run because the invocation ran out of time

    def python(self, *args):
        return [sys.executable, os.path.join(HERE, "child.py"), *args]

    def setup(self, directory, data_seed):
        os.makedirs(directory)
        out = os.path.join(directory, "setup.out")
        code, _, _ = self.children.run(
            self.python("setup", self.name, str(data_seed), directory), out, out + ".err"
        )
        if code != 0:
            self.failures.append(f"setup: {failure_tag(code, out + '.err')}")
            return False
        with open(out, encoding="utf-8") as fh:
            self.setup_s.append(json.loads(fh.read().strip().splitlines()[-1])["setup_s"])
        return True

    def command(self, index, data_dir, cache_dir, data_seed, traced):
        tag = f"r{index}{'t' if traced else ''}"
        out_dir = os.path.join(self.work, tag)
        os.makedirs(out_dir)
        cache_dir = cache_dir or os.path.join(out_dir, "cache")
        cli = [self.wl["command"], "--config", os.path.join(data_dir, "config.json"),
               "--out-dir", out_dir, "--cache-dir", cache_dir]
        if traced:
            argv = self.python("trace", os.path.join(out_dir, "layers.json"),
                               os.path.join(out_dir, "spans.jsonl"), *cli)
        else:
            argv = [sys.executable, "-m", "hinfuse.cli", *cli]
        stdout = os.path.join(out_dir, "stdout.txt")
        code, wall, rss = self.children.run(argv, stdout, os.path.join(out_dir, "stderr.txt"))
        request = {
            "index": index, "traced": traced, "data_seed": data_seed, "data_dir": data_dir,
            "out_dir": out_dir, "cache_dir": cache_dir, "stdout": stdout,
            "wall_s": wall, "peak_rss_mb": rss, "ok": code == 0,
        }
        if code != 0:
            request["failure"] = failure_tag(code, os.path.join(out_dir, "stderr.txt"))
        self.requests.append(request)
        return request

    def measure(self):
        per_request = self.wl["dataset"] == "per-request"
        warm = self.wl["cache"] == "warm"
        # A per-request workload times a fixed number of datasets, worked out
        # from --seconds alone, so a faster or slower commit averages the same ones.
        count = math.ceil(self.seconds / self.wl["request_s"]) if per_request else 1
        if count > self.wl["pool"]:
            raise SystemExit(f"--seconds {self.seconds} needs {count} datasets; the pool holds {self.wl['pool']}")
        seeds = workloads.data_seeds(self.wl, self.seed, count)
        bases = [os.path.join(self.work, f"setup{k}") for k in range(count)]
        for base, data_seed in zip(bases, seeds):
            if not self.setup(base, data_seed):
                return
        for k in range(count, SETUPS_PER_RUN):
            extra = os.path.join(self.work, f"setup{k}")
            if not self.setup(extra, seeds[0]):
                return
            shutil.rmtree(extra)
        measured, walls, index = 0.0, [], 0
        while (index < count) if per_request else (index < MIN_REQUESTS or measured < self.seconds):
            if walls and self.children.remaining() < 3 * max(walls):
                if per_request:  # datasets left out would change the mean: count them as failed
                    self.skipped = count - index
                    self.failures.append(f"r{index}..r{count - 1}: time limit, not run")
                break
            k = index if per_request else 0
            data_dir = os.path.join(bases[k], "data")
            cache_dir = os.path.join(bases[k], "cache") if warm else None
            wall = 0.0
            for traced in ((False, True) if self.trace else (False,)):
                wall += self.command(index, data_dir, cache_dir, seeds[k], traced)["wall_s"]
            measured += wall
            walls.append(wall)
            index += 1

    def check(self):
        done = [r for r in self.requests if r["ok"]]
        for r in self.requests:
            if not r["ok"]:
                self.failures.append(f"r{r['index']}: {r['failure']}")
        if not done:
            return
        path = os.path.join(self.work, "requests.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.name, "requests": done}, fh)
        out = os.path.join(self.work, "check.out")
        code, _, _ = self.children.run(self.python("check", path), out, out + ".err")
        if code != 0:
            self.failures.append(f"check: {failure_tag(code, out + '.err')}")
            for r in done:
                r["ok"] = False
            return
        with open(out, encoding="utf-8") as fh:
            verdicts = json.loads(fh.read().strip().splitlines()[-1])
        for r, verdict in zip(done, verdicts):
            r["check"] = verdict
            if verdict["problems"]:
                r["ok"] = False
                self.failures.append(f"r{r['index']}: check: {'; '.join(verdict['problems'])}")

    def end_to_end(self):
        plain = [r for r in self.requests if not r["traced"] and r["ok"]]
        # Repeats of one input: the median drops outliers.  One dataset per
        # request: the mean weighs every dataset, so it estimates the
        # workload's average request rather than its middle dataset.
        center = median if self.wl["dataset"] == "per-run" else mean
        return {
            "wall_s": {"value": center([r["wall_s"] for r in plain]), "unit": "s"},
            "peak_rss_mb": {"value": center([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
            "setup_s": {"value": median(self.setup_s), "unit": "s"},
        }

    def per_layer(self):
        pairs = {}
        for r in self.requests:
            pairs.setdefault(r["index"], {})[r["traced"]] = r
        rows = []
        for pair in pairs.values():
            plain, traced = pair.get(False), pair.get(True)
            if not (plain and traced and plain["ok"] and traced["ok"]):
                continue
            with open(os.path.join(traced["out_dir"], "layers.json"), encoding="utf-8") as fh:
                layers = json.load(fh)
            row = dict(layers["metrics"])
            reported = self._stage_seconds(traced["out_dir"])
            gap = 0.0
            for stage in workloads.STAGES:
                span_s = row.pop(f"pipeline.stage_span_s.{stage}")
                row[f"pipeline.stage_s.{stage}"] = reported.get(stage, span_s)
                gap = max(gap, abs(row[f"pipeline.stage_s.{stage}"] - span_s))
            row["pipeline.stage_gap_s"] = gap  # metrics.json stage times vs the stage spans
            row["pipeline.rmse_test"] = traced.get("check", {}).get("rmse_test") or 0.0
            traced_wall = traced["wall_s"] - layers["post_s"]
            row["pipeline.unattributed_s"] = traced_wall - layers["root_s"]
            row["trace.overhead_s"] = traced_wall - plain["wall_s"]
            rows.append(row)
        if not rows:
            return {}
        return {key: {"value": median([row[key] for row in rows]), "unit": layer_unit(key)} for key in rows[0]}

    @staticmethod
    def _stage_seconds(out_dir):
        path = os.path.join(out_dir, "metrics.json")
        if not os.path.exists(path):
            return {}
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["stage_seconds"]

    def result(self):
        attempted = len(self.requests) + self.skipped or 1
        failed = sum(1 for r in self.requests if not r["ok"]) + self.skipped or (1 if self.failures else 0)
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": not self.failures and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }

    def clean(self):
        """Drop datasets, caches and outputs; keep result.json and the traced runs' spans."""
        for r in self.requests:
            spans = os.path.join(r["out_dir"], "spans.jsonl")
            if os.path.exists(spans):
                os.replace(spans, os.path.join(self.work, f"spans-r{r['index']}.jsonl"))
        for entry in os.listdir(self.work):
            path = os.path.join(self.work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)

    def summary(self):
        """Per-request record kept in the checkout for inspection."""
        return {
            "workload": self.name, "seed": self.seed, "trace": self.trace,
            "setup_s": self.setup_s, "failures": self.failures,
            "requests": [
                {k: r.get(k) for k in ("index", "traced", "data_seed", "wall_s", "peak_rss_mb", "ok", "check")}
                for r in self.requests
            ],
        }


def median(values):
    return float(statistics.median(values)) if values else 0.0


def mean(values):
    return float(statistics.fmean(values)) if values else 0.0


def layer_unit(key):
    if "_mb" in key:
        return "MB"
    if "rmse" in key:
        return "rating"
    if "ratio" in key:
        return "ratio"
    if "_s." in key or key.endswith("_s") or "s_per_" in key:
        return "s"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hinfuse", "cli.py")):
        print(f"no hinfuse sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.names():
        print(f"unknown workload {args.workload!r}; pick one of {workloads.names()}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    run.measure()
    run.check()
    result = run.result()
    env = environment()
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**run.summary(), "env": env, "result": result}, fh, indent=1)
    run.clean()
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env, "requests": len(run.requests)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
