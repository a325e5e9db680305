import dataclasses
import functools
import gc
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from hinfuse import cli, factors, fmg, hin, metagraph, pipeline, solvers, synth

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


class TestNnzRatio:
    def test_all_zero(self):
        params = fmg.FmParams(3.0, np.zeros(4), np.zeros((4, 2)))
        assert fmg.param_nnz_ratio(params) == 0.0

    def test_fully_dense(self):
        params = fmg.FmParams(0.0, np.ones(4), np.ones((4, 2)))
        assert fmg.param_nnz_ratio(params) == 1.0

    def test_half_dense(self):
        w = np.array([1.0, 1.0, 0.0, 0.0])
        V = np.zeros((4, 2))
        V[:2] = 1.0
        params = fmg.FmParams(0.5, w, V)  # bias never counts
        assert fmg.param_nnz_ratio(params) == pytest.approx(0.5)


class TestReportSelected:
    def layout(self):
        return fmg.GroupLayout.from_ranks(["m1", "m2"], [2, 2])

    def test_all_zero_selects_nothing(self):
        layout = self.layout()
        params = fmg.FmParams(1.0, np.zeros(layout.d), np.zeros((layout.d, 2)))
        rows = pipeline.report_selected(params, layout)
        assert all(not r["w_selected"] and not r["v_selected"] for r in rows)

    def test_planted_groups_flagged(self):
        layout = self.layout()
        w = np.zeros(layout.d)
        w[0:2] = 1.0  # m1:user
        V = np.zeros((layout.d, 2))
        V[4:6] = 1.0  # m1:item rows
        params = fmg.FmParams(0.0, w, V)
        rows = {r["group"]: r for r in pipeline.report_selected(params, layout)}
        assert rows["m1:user"]["w_selected"] and not rows["m1:user"]["v_selected"]
        assert rows["m1:item"]["v_selected"] and not rows["m1:item"]["w_selected"]
        assert not rows["m2:user"]["w_selected"] and not rows["m2:item"]["v_selected"]

    def test_threshold_respected(self):
        layout = self.layout()
        w = np.full(layout.d, 1e-6)
        params = fmg.FmParams(0.0, w, np.zeros((layout.d, 2)))
        rows = pipeline.report_selected(params, layout, threshold=1e-3)
        assert all(not r["w_selected"] for r in rows)
        for bad in (-1.0, float("nan"), float("inf")):  # NaN compares false: every group would read dropped
            with pytest.raises(ValueError, match="threshold must be a finite number >= 0"):
                pipeline.report_selected(params, layout, threshold=bad)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    schema = synth.write_rating_dataset(
        str(root), seed=0, n_users=60, n_items=40, ratings_per_user=10, n_friends=4
    )
    return root, schema


def small_config(root, schema, **overrides):
    base = dict(
        schema=schema,
        metagraphs=os.path.join(root, "metagraphs.txt"),
        fractions=(0.8, 0.1, 0.1),
        seed=5,
        log_scale_similarity=True,
        feature_method="mf",
        rank=3,
        mu=0.05,
        K=3,
        lambdas=(0.01, 0.05),
        solver=solvers.SolverConfig(algorithm="svrg", step=0.02, max_iters=25, seed=5),
    )
    base.update(overrides)
    return pipeline.ExperimentConfig(**base)


def reverse_lines(path):
    path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))


def set_rating_range(data, scale):
    """Declare ``scale`` as the ``ratings.range`` of the schema in the dataset directory ``data``."""
    schema = json.loads((data / "schema.json").read_text())
    schema["ratings"]["range"] = scale
    (data / "schema.json").write_text(json.dumps(schema))


class TestRunPipeline:
    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_training_holds_no_similarity_matrix(self, dataset, tmp_path, monkeypatch, cache):
        # every matrix built or read in this process is tracked; the fits run here too (the
        # fallback where fork is unavailable), so their reads are seen
        root, schema = dataset
        cfg = small_config(str(root), schema)
        cache_dir = str(tmp_path / "cache")
        if cache == "warm":
            pipeline.Stages(cfg, str(tmp_path / "fill"), cache_dir).run(cfg.seed, through="factorize")
        refs, alive = [], {"new": [], "train": []}
        train = pipeline.Stages.train

        def live():
            return sum(ref() is not None for ref in refs)

        def tracked(fn):
            def wrapper(*args, **kwargs):
                alive["new"].append(live())
                matrix = fn(*args, **kwargs)
                refs.append(weakref.ref(matrix))
                return matrix
            return wrapper

        def counted(stages, *args):
            alive["train"].append(live())
            return train(stages, *args)

        monkeypatch.setattr(metagraph, "execute_plan", tracked(metagraph.execute_plan))
        monkeypatch.setattr(metagraph.SimilarityFile, "matrix", property(tracked(metagraph.SimilarityFile.matrix.fget)))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(pipeline.Stages, "train", counted)
        stages = pipeline.Stages(cfg, str(tmp_path / "out"), cache_dir)
        run = stages.run(cfg.seed)
        # cold: each matrix is computed, then read back by its fit; warm: every factor file hits
        assert len(refs) == (2 * len(run.specs) if cache == "cold" else 0) and len(run.specs) > 1
        assert alive == {"new": [0] * len(refs), "train": [0]} and live() == 0
        assert run.rmses["test"] > 0
        assert [e["hit"] for e in stages.cache_events["similarity"]] == [cache == "warm"] * len(run.specs)

    def test_warm_run_reads_no_similarity(self, dataset, tmp_path, monkeypatch):
        root, schema = dataset
        cfg = small_config(str(root), schema)
        cache_dir = str(tmp_path / "cache")
        filled = pipeline.Stages(cfg, str(tmp_path / "fill"), cache_dir).run(cfg.seed, through="factorize")
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a warm run read or built a similarity matrix")

        monkeypatch.setattr(metagraph.SimilarityFile, "matrix", property(refused))
        monkeypatch.setattr(metagraph, "execute_plan", refused)
        monkeypatch.setattr(hin, "attach_ratings", refused)  # only a computed similarity needs the ratings
        stages = pipeline.Stages(cfg, str(tmp_path / "out"), cache_dir)
        run = stages.run(cfg.seed)
        assert calls == [] and run.rmses["test"] > 0
        assert all(e["hit"] for kind in ("similarity", "factorize") for e in stages.cache_events[kind])
        assert run.sims == filled.sims  # the same records, read from the files' headers

    def test_similarity_stage_holds_one_matrix_at_a_time(self, tmp_path):
        # nine metagraphs: the stage's peak stays below the bytes of its matrices together
        data = str(tmp_path / "data")
        synth.write_review_dataset(data, seed=4, n_users=300, n_items=150)
        cfg = pipeline.ExperimentConfig.from_dict({"schema": "schema.json", "metagraphs": "metagraphs.txt"},
                                                  base_dir=data)
        stages = pipeline.Stages(cfg, str(tmp_path / "out"))
        store, ratings, decl, specs, _ = stages.ingest()
        train, _, _ = stages.split(ratings, cfg.seed)
        gc.collect()
        tracemalloc.start()
        try:
            sims = stages.similarities(store, train, decl, specs, cfg.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 0
        for sim in sims:
            matrix = sim.matrix
            assert (sim.shape, sim.nnz) == (matrix.shape, matrix.nnz)
            held += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert len(sims) == 9 and peak < held

    def test_missing_similarity_beside_factor_file_is_recomputed(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema)
        cache = tmp_path / "cache"
        filled = pipeline.Stages(cfg, str(tmp_path / "fill"), str(cache)).run(cfg.seed, through="factorize")
        lost = filled.sims[1]
        with np.load(lost.path) as f:
            before = {name: f[name] for name in f.files}
        os.remove(lost.path)
        stages = pipeline.Stages(cfg, str(tmp_path / "out"), str(cache))
        run = stages.run(cfg.seed, through="factorize")
        hits = [e["hit"] for e in stages.cache_events["similarity"]]
        assert hits == [sim is not lost for sim in filled.sims]
        assert all(e["hit"] for e in stages.cache_events["factorize"])
        assert run.sims == filled.sims
        with np.load(lost.path) as again:
            assert again.files == list(before) and all(np.array_equal(before[n], again[n]) for n in before)

    @pytest.mark.parametrize("stage", ["similarity", "factorize"])
    def test_failed_cache_write_leaves_no_file(self, dataset, tmp_path, monkeypatch, stage):
        root, schema = dataset
        cfg = small_config(str(root), schema)
        cache = tmp_path / "cache"
        if stage == "factorize":
            pipeline.Stages(cfg, str(tmp_path / "fill"), str(cache)).run(cfg.seed, through="similarity")
        filled = sorted(p.name for p in cache.iterdir()) if cache.exists() else []

        def broken(fh, **arrays):
            fh.write(b"PK\x03\x04")  # a partial archive, as a write killed midway leaves it
            raise OSError("planted write failure")

        monkeypatch.setattr(np, "savez", broken)
        with pytest.raises(pipeline.StageError, match=rf"\[{stage}\] planted write failure"):
            pipeline.Stages(cfg, str(tmp_path / "out"), str(cache)).run(cfg.seed, through="factorize")
        assert sorted(p.name for p in cache.iterdir()) == filled  # no file at the path, no temporary file
        monkeypatch.undo()
        stages = pipeline.Stages(cfg, str(tmp_path / "out"), str(cache))
        run = stages.run(cfg.seed, through="factorize")
        assert [e["hit"] for e in stages.cache_events["similarity"]] == [stage == "factorize"] * len(run.specs)
        assert not any(e["hit"] for e in stages.cache_events["factorize"])

    def test_no_metagraphs_error(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema, select=[])
        with pytest.raises(pipeline.StageError, match=r"\[ingest\].*no metagraphs"):
            pipeline.run_pipeline(cfg, str(tmp_path / "out"))

    def test_unknown_selection_error(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema, select=["M1", "M99"])
        with pytest.raises(pipeline.StageError, match="M99"):
            pipeline.run_pipeline(cfg, str(tmp_path / "out"))

    @pytest.mark.parametrize("algorithm", ["svrg", "nmapg-lsp"])
    def test_trace_ends_at_the_reported_fit(self, dataset, tmp_path, algorithm):
        # the selected lambda's series entry is its trace's last record, to the last bit; split
        # seed 4 is one where a second scoring formula differed from the trace's in the last bits
        root, schema = dataset
        if algorithm == "svrg":
            cfg = small_config(str(root), schema, seed=4)
        else:
            solver = solvers.SolverConfig(algorithm="nmapg", step=0.01, max_iters=20, checkpoint_every=5, seed=5)
            cfg = small_config(str(root), schema, seed=4, mode="lsp", lambdas=(0.01, 0.05, 0.2), solver=solver)
        out = tmp_path / "out"
        pipeline.run_pipeline(cfg, str(out))
        metrics = json.loads((out / "metrics.json").read_text())
        last = json.loads((out / "trace.jsonl").read_text().splitlines()[-1])
        entry, = (e for e in metrics["lambda_series"] if e["lambda"] == metrics["selected_lambda"])
        assert (last["rmse_valid"], last["nnz"]) == (entry["rmse_valid"], entry["nnz"])
        assert entry["nnz"] == metrics["nnz"]

    def test_failed_model_write_leaves_no_file(self, dataset, tmp_path, monkeypatch):
        root, schema = dataset
        cfg = small_config(str(root), schema, lambdas=(0.05,))
        out = tmp_path / "out"
        stages = pipeline.Stages(cfg, str(out), str(tmp_path / "cache"))
        run = stages.run(cfg.seed, through="train")
        seen = []

        def broken(fh, **arrays):
            fh.write(b"PK\x03\x04")  # a partial archive, as a write killed midway leaves it
            fh.flush()
            seen.append((out / "model.npz").exists())  # a process killed here leaves the path as it is now
            raise OSError("planted write failure")

        monkeypatch.setattr(np, "savez", broken)
        with pytest.raises(OSError, match="planted"):
            stages.save_model(run)
        assert seen == [False] and os.listdir(out) == []  # no model.npz, no temporary file
        monkeypatch.undo()
        stages.save_model(run)
        assert fmg.load_model(str(out / "model.npz")).reg.lam_w == 0.05

    def test_full_run_writes_artifacts(self, dataset, tmp_path):
        root, schema = dataset
        out = str(tmp_path / "out")
        report = pipeline.run_pipeline(small_config(str(root), schema), out)
        assert report.rmse_test is not None and report.rmse_test > 0
        assert report.selected_lambda in (0.01, 0.05)
        assert 0.0 <= report.nnz <= 1.0
        assert len(report.groups) == 8  # 4 metagraphs x user/item
        assert len(report.lambda_series) == 2
        for name in ("metrics.json", "model.npz", "trace.jsonl"):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "metrics.json")) as fh:
            doc = json.load(fh)
        assert doc["rmse"]["test"] == report.rmse_test

    def test_warm_cache_rerun_is_identical(self, dataset, tmp_path):
        root, schema = dataset
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cache = str(tmp_path / "cache")
        cfg = small_config(str(root), schema)
        first = pipeline.run_pipeline(cfg, out1, cache)
        second = pipeline.run_pipeline(cfg, out2, cache)
        assert first.comparable() == second.comparable()
        assert all(not e["hit"] for e in first.cache_events["similarity"])
        assert all(e["hit"] for e in second.cache_events["similarity"])
        assert all(e["hit"] for e in second.cache_events["factorize"])

    @pytest.mark.parametrize("method, unused, used", [("mf", "max_rank", "rank"), ("nnr", "rank", "max_rank")])
    def test_factor_cache_key_names_only_the_width_the_method_reads(self, dataset, tmp_path, method, unused,
                                                                   used):
        root, schema = dataset
        cache = str(tmp_path / "cache")

        def factorize_hits(**widths):
            cfg = small_config(str(root), schema, feature_method=method, **{"rank": 3, "max_rank": 3, **widths})
            stages = pipeline.Stages(cfg, str(tmp_path / "out"), cache)
            stages.run(cfg.seed, through="factorize")
            return [e["hit"] for e in stages.cache_events["factorize"]]

        assert not any(factorize_hits())
        assert all(factorize_hits(**{unused: 2}))
        assert not any(factorize_hits(**{used: 2}))

    def test_fresh_cache_still_deterministic(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema)
        a = pipeline.run_pipeline(cfg, str(tmp_path / "a"), str(tmp_path / "ca"))
        b = pipeline.run_pipeline(cfg, str(tmp_path / "b"), str(tmp_path / "cb"))
        assert a.comparable() == b.comparable()

    def test_test_labels_only_read_at_evaluation(self, dataset, tmp_path, monkeypatch):
        # a split's labels are read where its table is built; note each table's role and the
        # stage it is built in
        root, schema = dataset
        stage, events = [None], []
        timed, table = pipeline.Stages.timed, pipeline.Stages.table

        def tracked_timed(self, name, fn):
            outer, stage[0] = stage[0], name
            try:
                return timed(self, name, fn)
            finally:
                stage[0] = outer

        def tracked_table(features, rating_set):
            events.append((rating_set.role, stage[0]))
            return table(features, rating_set)

        monkeypatch.setattr(pipeline.Stages, "timed", tracked_timed)
        monkeypatch.setattr(pipeline.Stages, "table", staticmethod(tracked_table))
        pipeline.run_pipeline(small_config(str(root), schema), str(tmp_path / "out"))
        test_events = [(role, stage) for role, stage in events if role == "test"]
        assert test_events, "test labels were never read"
        assert all(stage == "evaluate" for _, stage in test_events)
        assert any(role == "train" for role, _ in events)

    def test_review_schema_with_bundled_yelp_metagraphs(self, tmp_path):
        # end to end over the full review-style schema, including the
        # parallel-block metagraph, straight from the shipped DSL file
        schema = synth.write_review_dataset(str(tmp_path / "data"), seed=1)
        cfg = pipeline.ExperimentConfig(
            schema=schema,
            metagraphs=os.path.join(str(tmp_path / "data"), "metagraphs.txt"),
            fractions=(0.8, 0.1, 0.1),
            seed=2,
            log_scale_similarity=True,
            standardize_features=True,  # aspect-hub metagraphs give wide feature scales
            feature_method="mf",
            rank=3,
            mu=0.05,
            K=3,
            lambdas=(0.01,),
            solver=solvers.SolverConfig(algorithm="svrg", step=0.02, max_iters=30, seed=2),
        )
        report = pipeline.run_pipeline(cfg, str(tmp_path / "out"))
        assert np.isfinite(report.rmse_test)
        assert len(report.groups) == 18  # 9 metagraphs x user/item
        assert {e["metagraph"] for e in report.cache_events["similarity"]} == {
            f"M{i}" for i in range(1, 10)
        }

    def test_default_config_runs_the_cost_planner(self, tmp_path, monkeypatch):
        # a config without optimize_plans compiles with optimize=True; its matrices equal the
        # left-to-right plans' ones
        data = str(tmp_path / "data")
        synth.write_review_dataset(data, seed=4)
        doc = {"schema": "schema.json", "metagraphs": "metagraphs.txt"}
        compiled = []
        compile_plan = metagraph.compile_plan

        def recording_compile(spec, store, optimize=False):
            compiled.append(optimize)
            return compile_plan(spec, store, optimize=optimize)

        monkeypatch.setattr(pipeline.metagraph, "compile_plan", recording_compile)
        sims = {}
        for name, extra in (("default", {}), ("literal", {"optimize_plans": False})):
            cfg = pipeline.ExperimentConfig.from_dict({**doc, **extra}, base_dir=data)
            run = pipeline.Stages(cfg, str(tmp_path / name)).run(cfg.seed, through="similarity")
            sims[name] = run.sims
        assert compiled == [True] * 9 + [False] * 9
        assert [s.metagraph for s in sims["default"]] == [f"M{i}" for i in range(1, 10)]
        for got, want in zip(sims["default"], sims["literal"]):
            assert got.metagraph == want.metagraph and got.nnz == want.nnz
            assert (got.matrix != want.matrix).nnz == 0, got.metagraph

    def test_log_scaling_one_similarity_leaves_the_next_unscaled(self, dataset, tmp_path):
        # M1 is the bare rating adjacency; log-scaling its result must not reach the store M2 reads
        root, schema = dataset
        sims = {}
        for select in (["M1", "M2"], ["M2"]):
            cfg = small_config(str(root), schema, select=select)
            out = str(tmp_path / "-".join(select))
            sims[len(select)] = pipeline.Stages(cfg, out).run(cfg.seed, through="similarity").sims
        assert sims[2][0].matrix.data.max() == pytest.approx(np.log1p(1.0))
        pair, alone = sims[2][1].matrix, sims[1][0].matrix
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(pair, name), getattr(alone, name)), name

    def test_standardized_features_run_end_to_end(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema, standardize_features=True, lambdas=(0.05,))
        report = pipeline.run_pipeline(cfg, str(tmp_path / "out"))
        assert report.rmse_test is not None and np.isfinite(report.rmse_test)
        cfg2 = small_config(str(root), schema, standardize_features=True, lambdas=(0.05,))
        report2 = pipeline.run_pipeline(cfg2, str(tmp_path / "out2"))
        assert report.comparable() == report2.comparable()

    def test_repeats_report_mean_and_std(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema, repeats=2, lambdas=(0.05,))
        report = pipeline.run_pipeline(cfg, str(tmp_path / "out"))
        assert len(report.repeats) == 2
        assert report.rmse_test == pytest.approx(np.mean(report.repeats))
        assert report.rmse_test_std is not None

    def test_repeats_ingest_once(self, dataset, tmp_path, monkeypatch):
        root, schema = dataset
        calls = []
        pause = 0.4  # far above what ingesting this small dataset takes
        ingest = hin.ingest

        def slow_ingest(*args, **kwargs):
            calls.append(args)
            time.sleep(pause)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(pipeline.hin, "ingest", slow_ingest)
        cfg = small_config(str(root), schema, repeats=2, lambdas=(0.05,))
        report = pipeline.run_pipeline(cfg, str(tmp_path / "out"))
        assert len(calls) == 1 and len(report.repeats) == 2
        assert pause <= report.stage_seconds["ingest"] < 2 * pause

    def test_metrics_record_memory_per_stage(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema, lambdas=(0.05,))
        out = tmp_path / "out"
        report = pipeline.run_pipeline(cfg, str(out))
        memory = json.loads((out / "metrics.json").read_text())["memory"]
        assert memory == report.memory
        assert set(memory["stages"]) == set(report.stage_seconds)
        for record in memory["stages"].values():
            assert set(record) == {"self_mb", "children_mb"}
            assert record["self_mb"] >= memory["floor_mb"] > 0
        assert "memory" not in report.comparable()

    def test_stage_memory_rises_by_what_the_stage_allocates(self, tmp_path):
        # The stages run in a process forked from a fresh interpreter: its high-water mark starts at
        # its own size, while an exec'd process's ru_maxrss starts at its spawner's (here pytest's).
        code = textwrap.dedent("""
            import json, multiprocessing, sys
            import numpy as np
            from hinfuse import pipeline

            def allocate():
                return float(np.ones(int(sys.argv[2]) * 2**20 // 8).sum())  # np.ones writes every page

            def in_worker(fn):
                worker = multiprocessing.get_context("fork").Process(target=fn)
                worker.start()
                worker.join(60)
                return worker.exitcode

            def probe():
                stages = pipeline.Stages(None, sys.argv[1])
                stages.timed("before", lambda: None)
                stages.timed("array", allocate)
                assert stages.timed("worker", lambda: in_worker(allocate)) == 0
                print(json.dumps(stages.memory))

            sys.exit(in_worker(probe))
        """)
        size_mb = 64
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(size_mb)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        memory = json.loads(done.stdout)
        before, array, worker = (memory["stages"][s] for s in ("before", "array", "worker"))
        assert before["self_mb"] >= memory["floor_mb"]
        assert array["self_mb"] >= before["self_mb"] + size_mb
        assert worker["children_mb"] >= before["children_mb"] + size_mb

    def test_blocks_built_once_per_run(self, dataset, tmp_path, monkeypatch):
        root, schema = dataset
        calls = []
        factor_blocks = fmg.factor_blocks

        def counting_blocks(pairs):
            calls.append([pair.metagraph for pair in pairs])
            return factor_blocks(pairs)

        monkeypatch.setattr(pipeline.fmg, "factor_blocks", counting_blocks)
        out = str(tmp_path / "out")
        cfg = small_config(str(root), schema, standardize_features=True, lambdas=(0.05,), repeats=2)
        pipeline.run_pipeline(cfg, out)
        assert len(calls) == 2  # once per repeat: train, valid and test share the blocks
        calls.clear()
        model = fmg.load_model(os.path.join(out, "model.npz"))
        rmses = pipeline.Stages(cfg, out).score_model(model, cfg.seed)
        assert not calls and set(rmses) == {"train", "valid", "test"}  # a saved model brings its own

    def test_cache_key_tracks_input_content(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema)
        cache = str(tmp_path / "cache")
        pipeline.run_pipeline(cfg, str(tmp_path / "a"), cache)
        # same config but a different seed changes the split: caches must miss
        cfg2 = small_config(str(root), schema, seed=6,
                            solver=solvers.SolverConfig(algorithm="svrg", step=0.02, max_iters=25, seed=6))
        second = pipeline.run_pipeline(cfg2, str(tmp_path / "b"), cache)
        assert all(not e["hit"] for e in second.cache_events["similarity"])


class TestExperimentConfig:
    def test_from_json(self, dataset, tmp_path):
        root, schema = dataset
        doc = {
            "schema": "schema.json",
            "metagraphs": "metagraphs.txt",
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": 11},
            "features": {"method": "mf", "rank": 4, "mu": 0.02},
            "fm": {"K": 5, "mode": "lsp", "lambda": [0.01, 0.1]},
            "solver": {"algorithm": "nmapg", "step": 0.02, "max_iters": 50},
            "log_scale_similarity": True,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        # config paths resolve relative to the config file location
        for name in ("schema.json", "metagraphs.txt", "ratings.tsv", "friend.tsv", "hascat.tsv"):
            (tmp_path / name).write_bytes((root / name).read_bytes())
        cfg = pipeline.ExperimentConfig.from_json(str(path))
        assert cfg.seed == 11 and cfg.K == 5 and cfg.mode == "lsp"
        assert cfg.lambdas == (0.01, 0.1)
        assert cfg.solver.algorithm == "nmapg" and cfg.solver.step == 0.02
        assert cfg.rank == 4 and cfg.mu == 0.02

    def test_benchmark_workload_configs_load(self, tmp_path):
        # a config key the benchmark's workloads still set must not be removed silently
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.json")
        with open(path, encoding="utf-8") as fh:
            workloads = json.load(fh)["workloads"]
        data = str(tmp_path / "data")
        synth.write_review_dataset(data, seed=0, n_users=12, n_items=8, ratings_per_user=3, n_friends=2)
        assert workloads
        for name, workload in workloads.items():
            doc = {"schema": "schema.json", "metagraphs": "metagraphs.txt", **workload["config"]}
            cfg = pipeline.ExperimentConfig.from_dict(doc, base_dir=data)
            assert cfg.fractions == tuple(workload["config"]["split"]["fractions"]), name

    def test_readme_names_every_config_key(self):
        # README's config section has one table row per key the loader accepts, named as a config
        # error names it (top-level keys bare, section keys as "section.key"), with the key's kind,
        # its default, every choice value and its lower bound
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            readme = fh.read()
        section = readme[readme.index("### Experiment config"):readme.index("## Data formats")]
        rows = {cells[0]: cells[1:] for line in section.splitlines() if line.startswith("| `")
                for cells in [[cell.strip() for cell in line.strip().strip("|").split("|")]]}
        specs = [spec for config in (pipeline.ExperimentConfig, solvers.SolverConfig)
                 for spec in dataclasses.fields(config) if spec.metadata]
        assert specs and sorted(rows) == sorted(f"`{spec.metadata['key']}`" for spec in specs)
        for spec in specs:
            meta = spec.metadata
            kind, default, check = rows[f"`{meta['key']}`"]
            assert kind == meta["kind"], meta["key"]
            missing = spec.default is dataclasses.MISSING
            assert default == ("required" if missing else f"`{json.dumps(spec.default)}`"), meta["key"]
            bound = [f"`{meta['bound'][0]} {meta['bound'][1]}`"] if meta["bound"] else []
            assert [text for text in [*(f"`{c}`" for c in meta["choices"] or ()), *bound]
                    if text not in check] == [], meta["key"]

    def test_default_lambda_grid(self, dataset):
        root, schema = dataset
        cfg = small_config(str(root), schema, lambdas=pipeline.DEFAULT_LAMBDA_GRID)
        assert cfg.lambdas == pipeline.DEFAULT_LAMBDA_GRID

    def test_negative_lambda_rejected(self, dataset):
        root, schema = dataset
        with pytest.raises(ValueError, match="lambda"):
            small_config(str(root), str(schema), lambdas=(-0.1,))

    def test_bad_feature_method_rejected(self, dataset):
        root, schema = dataset
        with pytest.raises(ValueError, match="features.method must be one of mf, nnr, got 'pca'"):
            small_config(str(root), str(schema), feature_method="pca")

    def test_missing_files_rejected_at_validation(self, tmp_path):
        doc = {"schema": "nowhere.json", "metagraphs": "none.txt"}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing file"):
            pipeline.ExperimentConfig.from_json(str(path))

    def test_metagraph_with_wrong_endpoints_rejected(self, dataset, tmp_path):
        root, schema = dataset
        # a metagraph ending at the category type cannot feed user-item features
        bad = tmp_path / "bad.txt"
        bad.write_text("MX: U -[rate]- B -[hascat]- C\n")
        cfg = small_config(str(root), schema, metagraphs=str(bad))
        with pytest.raises(pipeline.StageError, match="ratings connect"):
            pipeline.run_pipeline(cfg, str(tmp_path / "out"))


class TestCli:
    def write_config(self, root, tmp_path, **extra):
        doc = {
            "schema": os.path.join(str(root), "schema.json"),
            "metagraphs": os.path.join(str(root), "metagraphs.txt"),
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": 5},
            "features": {"method": "mf", "rank": 3, "mu": 0.05},
            "fm": {"K": 3, "lambda": [0.05]},
            "solver": {"algorithm": "svrg", "step": 0.02, "max_iters": 20, "seed": 5},
            "log_scale_similarity": True,
            **extra,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_pipeline_and_report_commands(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["pipeline", "--config", config, "--out-dir", out]) == 0
        printed = capsys.readouterr().out
        assert '"test"' in printed
        assert cli.main(["report", "--out-dir", out]) == 0
        printed = capsys.readouterr().out
        assert "m" in printed and "nnz=" in printed

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_report_threshold_must_be_finite(self, tmp_path, capsys, threshold):
        layout = fmg.GroupLayout.from_ranks(["m1"], [2])
        params = fmg.FmParams(0.0, np.ones(layout.d), np.ones((layout.d, 2)))
        fmg.save_model(tmp_path / "model.npz", fmg.SavedModel(
            params, layout, fmg.RegConfig(), {"rating_range": [1.0, 5.0]}, (np.ones((1, 2)), np.ones((1, 2))),
            ["u"], ["i"], {}))
        assert cli.main(["report", "--out-dir", str(tmp_path), "--threshold", threshold]) == 1
        assert capsys.readouterr() == ("", f"[config] threshold must be a finite number >= 0, got {float(threshold)}\n")

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not-zip", "lone-array"])
    def test_damaged_model_refused(self, dataset, tmp_path, capsys, damage):
        root, _ = dataset
        out = tmp_path / "out"
        path = out / "model.npz"
        if damage == "truncated":
            assert cli.main(["train", "--config", self.write_config(root, tmp_path), "--out-dir", str(out)]) == 0
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            out.mkdir()
            with open(path, "wb") as fh:
                if damage == "lone-array":
                    np.save(fh, np.zeros(3))  # a .npy file: numpy loads it as an array, not an archive
                else:
                    fh.write(b"" if damage == "empty" else b"b\t0.5\nw\t0 0 0\n")
        capsys.readouterr()
        for command in (["report"], ["evaluate", "--config", self.write_config(root, tmp_path)]):
            assert cli.main([*command, "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err.strip()
            assert err.startswith(f"[config] {path} is not a model file this version can read (")
            assert err.endswith("; train the model again")

    def test_stage_commands_compose(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["ingest", "--config", config, "--out-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "ingest.json"))
        assert cli.main(["similarity", "--config", config, "--out-dir", out]) == 0
        assert "computed" in capsys.readouterr().out
        assert cli.main(["similarity", "--config", config, "--out-dir", out]) == 0
        assert "cached" in capsys.readouterr().out
        assert cli.main(["factorize", "--config", config, "--out-dir", out]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", config, "--out-dir", out]) == 0
        assert "selected lambda" in capsys.readouterr().out
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"train", "valid", "test"}

    def test_factorize_prints_iterations_of_computed_fits(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["factorize", "--config", config, "--out-dir", out]) == 0
        computed = capsys.readouterr().out.splitlines()
        assert computed and all(
            re.fullmatch(r"M\d+: rank=3 method=mf iters=[1-9]\d* \(computed\)", line)
            for line in computed
        ), computed
        assert cli.main(["factorize", "--config", config, "--out-dir", out]) == 0
        cached = capsys.readouterr().out.splitlines()
        assert [re.sub(r" iters=\d+ \(computed\)", " (cached)", line) for line in computed] == cached

    def test_evaluate_without_model_fails_with_stage_tag(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path)
        code = cli.main(["evaluate", "--config", config, "--out-dir", str(tmp_path / "empty")])
        assert code == 1
        assert "[evaluate]" in capsys.readouterr().err

    def test_train_then_evaluate_matches_pipeline_metrics(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(
            root, tmp_path, features={"method": "mf", "rank": 3, "mu": 0.05, "standardize": True}
        )
        staged, whole = str(tmp_path / "staged"), str(tmp_path / "whole")
        assert cli.main(["train", "--config", config, "--out-dir", staged]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", config, "--out-dir", staged]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert cli.main(["pipeline", "--config", config, "--out-dir", whole]) == 0
        with open(os.path.join(whole, "metrics.json")) as fh:
            written = json.load(fh)["rmse"]
        assert printed == {split: written[split] for split in ("train", "valid", "test")}

    def test_evaluate_scores_the_models_own_groups(self, dataset, tmp_path, capsys):
        # the model carries its features, so the config's metagraph order does not reach them
        root, _ = dataset
        out = str(tmp_path / "out")
        config = self.write_config(root, tmp_path, select=["M1", "M2"])
        assert cli.main(["train", "--config", config, "--out-dir", out]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 0
        trained_order = json.loads(capsys.readouterr().out)
        config = self.write_config(root, tmp_path, select=["M2", "M1"])
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 0
        assert json.loads(capsys.readouterr().out) == trained_order

    @pytest.mark.parametrize("lines", ["as-trained", "reversed"])
    def test_evaluate_runs_no_feature_stage(self, dataset, tmp_path, capsys, monkeypatch, lines):
        root, _ = dataset
        out, cache = str(tmp_path / "out"), tmp_path / "empty-cache"
        config = self.write_config(root, tmp_path)
        assert cli.main(["train", "--config", config, "--out-dir", out]) == 0
        capsys.readouterr()
        data = root
        if lines == "reversed":
            # a relation file in another line order is accepted: the model carries its features.
            # The ratings file is read first, so its ids keep their store indices; the model's rows
            # are reversed instead, so only the ids find the rows.
            data = tmp_path / "reversed"
            shutil.copytree(str(root), str(data))
            reverse_lines(data / "friend.tsv")
            config = self.write_config(data, tmp_path)
            model = fmg.load_model(os.path.join(out, "model.npz"))
            model.features = tuple(block[::-1] for block in model.features)
            model.user_ids, model.item_ids = model.user_ids[::-1], model.item_ids[::-1]
            fmg.save_model(os.path.join(out, "model.npz"), model)
        calls = []
        for module, name in ((metagraph, "execute_plan"), (factors, "factorize_mf"),
                             (factors, "factorize_nnr"), (fmg, "factor_blocks")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        cache.mkdir()
        assert cli.main(["evaluate", "--config", config, "--out-dir", out, "--cache-dir", str(cache)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert calls == [] and list(cache.iterdir()) == []

        # the model's stored blocks, indexed through its ids, on the training seed's splits
        model = fmg.load_model(os.path.join(out, "model.npz"))
        store, ratings, _ = hin.ingest(os.path.join(str(data), "schema.json"))
        user_row = {u: r for r, u in enumerate(model.user_ids)}
        item_row = {i: r for r, i in enumerate(model.item_ids)}
        users, items = (list(store.entities[t].id_map) for t in ("U", "B"))
        assert (users == model.user_ids.tolist()) == (lines == "as-trained")
        for split in hin.split_ratings(ratings, (0.8, 0.1, 0.1), 5):
            index = (np.array([user_row[users[u]] for u in split.users]),
                     np.array([item_row[items[i]] for i in split.items]))
            table = fmg.FeatureTable(split.values, tuple(zip(model.features, index)))
            expected = fmg.rmse(np.clip(fmg.predict_batch(model.params, table), 1.0, 5.0), split.values)
            assert printed[split.role] == pytest.approx(expected, rel=1e-12), split.role

    @pytest.mark.parametrize("change", ["seed", "fractions"])
    def test_evaluate_under_another_split_rejected(self, dataset, tmp_path, capsys, monkeypatch, change):
        # another split's "test" ratings hold ones the model was trained on: refused before ingest
        root, _ = dataset
        out = str(tmp_path / "out")
        assert cli.main(["train", "--config", self.write_config(root, tmp_path), "--out-dir", out]) == 0
        capsys.readouterr()
        split = ({"fractions": [0.8, 0.1, 0.1], "seed": 1} if change == "seed"
                 else {"fractions": [0.7, 0.2, 0.1], "seed": 5})
        config = self.write_config(root, tmp_path, split=split)
        calls = []
        monkeypatch.setattr(hin, "ingest", lambda *a, **k: calls.append("ingest"))
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[evaluate] model was trained on the split") and calls == []

    def test_evaluate_on_reordered_ratings_rejected(self, dataset, tmp_path, capsys, monkeypatch):
        # the same seed splits a reordered file differently, so its "test" ratings hold trained ones
        root, _ = dataset
        out = str(tmp_path / "out")
        assert cli.main(["train", "--config", self.write_config(root, tmp_path), "--out-dir", out]) == 0
        capsys.readouterr()
        data = tmp_path / "reordered"
        shutil.copytree(str(root), str(data))
        reverse_lines(data / "ratings.tsv")
        calls = []
        monkeypatch.setattr(hin, "ingest", lambda *a, **k: calls.append("ingest"))
        assert cli.main(["evaluate", "--config", self.write_config(data, tmp_path), "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[evaluate] model was trained on another ratings file") and calls == []

    def test_evaluate_copied_model_leaves_no_cache_dir(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path)
        trained, fresh = tmp_path / "trained", tmp_path / "fresh"
        assert cli.main(["train", "--config", config, "--out-dir", str(trained)]) == 0
        fresh.mkdir()
        shutil.copy(str(trained / "model.npz"), str(fresh / "model.npz"))
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", config, "--out-dir", str(fresh)]) == 0
        assert os.listdir(str(fresh)) == ["model.npz"]

    def test_evaluate_rejects_unknown_entities(self, dataset, tmp_path, capsys):
        root, _ = dataset
        out = str(tmp_path / "out")
        assert cli.main(["train", "--config", self.write_config(root, tmp_path), "--out-dir", out]) == 0
        capsys.readouterr()
        # the ratings file must stay as trained, so the model is what lacks the entities
        model = fmg.load_model(os.path.join(out, "model.npz"))
        model.user_ids = np.where(model.user_ids == "u0", "gone_user", model.user_ids)
        model.item_ids = np.where(np.isin(model.item_ids, ["b0", "b1"]), "gone_item", model.item_ids)
        fmg.save_model(os.path.join(out, "model.npz"), model)
        config = self.write_config(root, tmp_path)
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[evaluate]") and "1 rated users and 2 rated items not in the model" in err

    def test_evaluate_rejects_other_rating_range(self, dataset, tmp_path, capsys, monkeypatch):
        # the schema's range changed after training: refused before ingest, since its
        # predictions would be clipped to another scale than the one it was trained on
        root, _ = dataset
        data = tmp_path / "data"
        shutil.copytree(str(root), str(data))
        out = str(tmp_path / "out")
        config = self.write_config(data, tmp_path)
        assert cli.main(["train", "--config", config, "--out-dir", out]) == 0
        capsys.readouterr()
        set_rating_range(data, [0.0, 5.0])
        calls = []
        monkeypatch.setattr(hin, "ingest", lambda *a, **k: calls.append("ingest"))
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[evaluate] model was trained with {'rating_range': [1.0, 5.0]}, "
                              "the schema declares {'rating_range': [0.0, 5.0]}") and calls == []

    def test_doubled_ratings_are_clipped_to_the_schema_range(self, dataset, tmp_path):
        # ratings on a 2-10 scale, declared only in the schema: predictions must be clipped to
        # [2, 10], not to a separate default, or every one above 5 is cut down to 5
        root, _ = dataset
        data = tmp_path / "data"
        shutil.copytree(str(root), str(data))
        rows = [line.split("\t") for line in (data / "ratings.tsv").read_text().splitlines()]
        (data / "ratings.tsv").write_text("".join(f"{u}\t{i}\t{2 * float(r)!r}\n" for u, i, r in rows))
        set_rating_range(data, [2.0, 10.0])
        # the defaults, with log-scaled similarities (raw counts diverge at the default step)
        doc = {"schema": "schema.json", "metagraphs": "metagraphs.txt", "log_scale_similarity": True}
        cfg = pipeline.ExperimentConfig.from_dict(doc, base_dir=str(data))
        report = pipeline.run_pipeline(cfg, str(tmp_path / "out"))
        _, ratings, _ = hin.ingest(cfg.schema)
        train, _, test = hin.split_ratings(ratings, cfg.fractions, cfg.seed)
        assert report.rmse_test < np.sqrt(np.mean((test.values - np.mean(train.values)) ** 2))

    @pytest.mark.parametrize("scale", [[5.0], [5.0, 5.0], "1-5"])
    def test_malformed_rating_range_rejected_at_ingest(self, dataset, tmp_path, capsys, scale):
        root, _ = dataset
        data = tmp_path / "data"
        shutil.copytree(str(root), str(data))
        set_rating_range(data, scale)
        out = tmp_path / "out"
        assert cli.main(["similarity", "--config", self.write_config(data, tmp_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"[ingest] ratings.range must be two finite numbers lo < hi, got {scale!r}")
        assert not (out / "cache").exists()  # before any similarity is computed

    @staticmethod
    def write_wide_store(tmp_path, n):
        """Every one of ``n`` users writes one review, and every review mentions the one aspect."""
        data = tmp_path / "wide"
        data.mkdir()
        (data / "ratings.tsv").write_text("".join(f"u{i}\tb0\t4\n" for i in range(n)))
        (data / "write.tsv").write_text("".join(f"u{i}\tr{i}\n" for i in range(n)))
        (data / "mention.tsv").write_text("".join(f"r{i}\ta0\n" for i in range(n)))
        (data / "metagraphs.txt").write_text(
            "M8: U -[write]- R -[mention]- A -[mention~]- R -[write~]- U -[rate]- B\n")
        relations = [{"name": name, "head": head, "tail": tail, "file": f"{name}.tsv"}
                     for name, head, tail in (("write", "U", "R"), ("mention", "R", "A"))]
        (data / "schema.json").write_text(json.dumps({
            "entities": ["U", "B", "R", "A"], "relations": relations,
            "ratings": {"file": "ratings.tsv", "user_type": "U", "item_type": "B", "relation": "rate"},
        }))
        return data

    def test_similarity_over_budget_fails_with_stage_tag(self, tmp_path, capsys):
        # the left-to-right plan's (user, review) product could hold n * n > 1e8 nonzeros:
        # the default nnz_budget refuses it before it is formed, naming the metagraph and the step
        data = self.write_wide_store(tmp_path, 10001)
        config = self.write_config(data, tmp_path, optimize_plans=False)
        assert cli.main(["similarity", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[similarity] intermediate of shape (10001, 10001)") and "over budget" in err
        assert err.endswith("over budget 100000000 (M8, step 6, MatMulStep)\n")

    def test_similarity_default_planner_runs_wide_store(self, tmp_path, capsys):
        # the cost planner pairs mention~ with write~ and never forms the (user, review) product
        data = self.write_wide_store(tmp_path, 10001)
        config = self.write_config(data, tmp_path)
        assert cli.main(["similarity", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == "M8: 10001x1, nnz=10001 (computed)\n"

    @pytest.mark.parametrize("text, message", [
        ("M5: U -[rate]- B -[hastar~]- B", "M5: unknown relation 'hastar'"),
        ("M5: U -[rate]- S -[rate~]- U -[rate]- B", "M5: undeclared entity type 'S'"),
    ])
    def test_uncompilable_metagraph_fails_before_any_similarity(self, dataset, tmp_path, capsys, text, message):
        # every plan is compiled before the first runs: the last metagraph's error leaves no sim_* file
        root, _ = dataset
        metagraphs = tmp_path / "metagraphs.txt"
        metagraphs.write_text((root / "metagraphs.txt").read_text() + f"\n{text}\n")
        config = self.write_config(root, tmp_path, metagraphs=str(metagraphs))
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", config, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"[similarity] {message}\n"
        assert not list((out / "cache").glob("sim_*"))

    @pytest.mark.parametrize("fractions", [[0.9, 0.1, 0.0], [1, 0, 0]])
    def test_empty_test_split_reports_null(self, dataset, tmp_path, capsys, fractions):
        root, _ = dataset
        config = self.write_config(root, tmp_path, split={"fractions": fractions, "seed": 5})
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", config, "--out-dir", str(out)]) == 0
        rmse = json.loads((out / "metrics.json").read_text())["rmse"]
        assert rmse["test"] is None and rmse["test_std"] is None and rmse["train"] is not None
        assert (out / "model.npz").exists()

    def test_broken_config_fails_nonzero(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path, fm={"K": 3, "lambda": [-1.0]})
        code = cli.main(["pipeline", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize("extra, key", [
        ({"features": {"method": "mf", "rank": 3, "mu": 0.05, "standardise": True}}, "features.standardise"),
        ({"worker": 2}, "worker"),
        ({"solver": {"algorithm": "svrg", "stepsize": 0.01}}, "solver.stepsize"),
        ({"split": {"fraction": [0.8, 0.1, 0.1]}}, "split.fraction"),
        ({"fm": {"K": 3, "lamda": [0.05]}}, "fm.lamda"),
    ])
    def test_unknown_config_key_rejected(self, dataset, tmp_path, capsys, extra, key):
        root, _ = dataset
        config = self.write_config(root, tmp_path, **extra)
        out = str(tmp_path / "out")
        assert cli.main(["similarity", "--config", config, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[config]") and repr(key) in err
        assert not os.path.exists(out)

    BAD_VALUES = [
        ({"fm": {"K": 3, "lambda": [0.05], "mode": "lps"}}, "fm.mode must be one of convex, lsp, got 'lps'"),
        ({"solver": {"algorithm": "svgr", "step": 0.02}},
         "solver.algorithm must be one of nmapg, svrg, sgd, got 'svgr'"),
        ({"solver": {"step": "0.1"}}, "solver.step must be a number, got '0.1'"),
        ({"features": {"rank": 2.5}}, "features.rank must be an integer, got 2.5"),
        ({"solver": {"step": 0.02, "checkpoint_every": 0}}, "solver.checkpoint_every must be >= 1, got 0"),
        ({"solver": {"step": 0.02, "batch_size": 0}}, "solver.batch_size must be >= 1, got 0"),
        ({"solver": {"step": 0.02, "inner_steps": 0}}, "solver.inner_steps must be >= 1, got 0"),
        ({"solver": {"step": 0.02, "step_decay": -1}}, "solver.step_decay must be >= 0, got -1.0"),
        ({"features": {"method": "mf", "rank": 3, "mu": -1}}, "features.mu must be >= 0, got -1.0"),
        ({"features": {"method": "nnr", "mu": 0}}, "features.mu must be > 0 for nnr, got 0.0"),
        ({"features": {"method": "nnr", "mu": 0.05, "max_rank": 0}}, "features.max_rank must be >= 1, got 0"),
        ({"features": {"rank": 0}}, "features.rank must be >= 1, got 0"),
        # removed keys: the rating scale is the schema's, and the solvers train w and V at the
        # nmAPG extrapolated point with no switch
        ({"rating_range": [1.0, 5.0]}, "unknown config key 'rating_range'"),
        ({"clip_predictions": False}, "unknown config key 'clip_predictions'"),
        ({"solver": {"step": 0.02, "fit_w": False}}, "unknown config key 'solver.fit_w'"),
        ({"solver": {"step": 0.02, "fit_V": False}}, "unknown config key 'solver.fit_V'"),
        ({"solver": {"step": 0.02, "extrapolated_prox_point": False}},
         "unknown config key 'solver.extrapolated_prox_point'"),
        # removed keys: every group is weighted by lambda alone, nmAPG's delta and eta are
        # constants, and split.seed (with solver.seed) replaces the top-level seed
        ({"seed": 3}, "unknown config key 'seed'"),
        ({"fm": {"K": 3, "lambda": [0.05], "eta_weighting": "sqrt"}}, "unknown config key 'fm.eta_weighting'"),
        ({"solver": {"step": 0.02, "sufficient_decrease": 1e-3}},
         "unknown config key 'solver.sufficient_decrease'"),
        ({"solver": {"step": 0.02, "history_decay": 0.8}}, "unknown config key 'solver.history_decay'"),
        # JSON's NaN passes every range check, so numbers must be finite
        ({"features": {"method": "mf", "rank": 3, "mu": float("nan")}}, "features.mu must be a finite number"),
        ({"solver": {"step": float("nan")}}, "solver.step must be a finite number"),
        ({"fm": {"K": 3, "lambda": [float("nan")]}}, "fm.lambda must be a finite number"),
        ({"features": {"method": "mf", "rank": 3, "mu": 10**400}}, "features.mu must be a finite number"),
        ({"fm": {"K": 3, "lambda": []}}, "lambda grid is empty"),
        ({"split": {"fractions": [0.8, 0.2]}}, "fractions must be three numbers"),
        ({"split": {"fractions": [0.9, -0.1, 0.2]}}, "fractions must be nonnegative"),
        ({"split": {"fractions": [0.8, 0.2, 0.1]}}, "fractions must sum to 1"),
        # every value is checked against its key's kind: a bool takes only true or false, a
        # path or a choice a string, and select a list of names
        ({"binarize_ratings": "no"}, "binarize_ratings must be true or false, got 'no'"),
        ({"features": {"standardize": "no"}}, "features.standardize must be true or false, got 'no'"),
        ({"schema": 5}, "schema must be a string, got 5"),
        ({"solver": {"algorithm": ["nmapg"]}}, "solver.algorithm must be a string, got ['nmapg']"),
        ({"select": "M1"}, "select must be a list of strings, got 'M1'"),
        ({"select": [1]}, "select must be a list of strings, got [1]"),
        ({"split": {"fractions": [0.8, 0.1, 0.1], "seed": -1}}, "split.seed must be >= 0, got -1"),
        ({"solver": {"seed": -1}}, "solver.seed must be >= 0, got -1"),
        ({"repeats": 0}, "repeats must be >= 1, got 0"),
        # a repeated metagraph would be computed, fitted and given FM groups twice
        ({"select": ["M1", "M3", "M1"]}, "select names M1 more than once"),
    ]

    @pytest.mark.parametrize("extra, message", BAD_VALUES, ids=[f"extra{i}" for i in range(len(BAD_VALUES))])
    def test_bad_choice_rejected_at_load(self, dataset, tmp_path, capsys, extra, message):
        # rejected before any similarity is computed, not in the train stage
        root, _ = dataset
        config = self.write_config(root, tmp_path, **extra)
        out = str(tmp_path / "out")
        assert cli.main(["similarity", "--config", config, "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith(f"[config] {message}")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("where", ["config"])  # the config is the one place repeats is set
    def test_repeats_below_one_rejected(self, dataset, tmp_path, capsys, where):
        root, _ = dataset
        config = self.write_config(root, tmp_path, repeats=0)
        out = str(tmp_path / "out")
        assert cli.main(["pipeline", "--config", config, "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith("[config] repeats must be >= 1, got 0")
        assert not os.path.exists(os.path.join(out, "metrics.json"))

    def test_fits_leave_no_worker_behind(self, dataset, tmp_path, capsys):
        root, _ = dataset
        config = self.write_config(root, tmp_path, features={"method": "nnr", "mu": 1e6})
        assert cli.main(["pipeline", "--config", config, "--out-dir", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err.startswith("[factorize] mu=1000000.0 shrank every singular value")
        assert multiprocessing.active_children() == []
        config = self.write_config(root, tmp_path)
        assert cli.main(["pipeline", "--config", config, "--out-dir", str(tmp_path / "good")]) == 0
        assert multiprocessing.active_children() == []

    def test_split_seed_changes_the_split(self, dataset, tmp_path):
        root, _ = dataset
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        for seed, out in ((5, out1), (6, out2)):
            config = self.write_config(root, tmp_path, split={"fractions": [0.8, 0.1, 0.1], "seed": seed},
                                       solver={"algorithm": "svrg", "step": 0.02, "max_iters": 20, "seed": seed})
            assert cli.main(["pipeline", "--config", config, "--out-dir", out]) == 0
        with open(os.path.join(out1, "metrics.json")) as fh:
            a = json.load(fh)
        with open(os.path.join(out2, "metrics.json")) as fh:
            b = json.load(fh)
        assert a["rmse"]["test"] != b["rmse"]["test"]


def _stamp(index):
    return index, time.perf_counter()


def _fail():
    raise ValueError("planted failure")


def _sleep_and_mark(path):
    time.sleep(0.2)
    path.touch()


def _openblas_threads():
    return [get_threads() for _, get_threads in pipeline._openblas_thread_calls()]


class TestForkedFits:
    @pytest.mark.parametrize("method", ["mf", "nnr"])
    def test_pool_size_leaves_factor_files_unchanged(self, dataset, tmp_path, monkeypatch, method):
        root, schema = dataset
        cfg = small_config(str(root), schema, feature_method=method, mu=0.5 if method == "nnr" else 0.05)
        files = {}
        for cores in (1, 2):
            monkeypatch.setattr(pipeline, "_available_cores", lambda cores=cores: cores)
            cache = tmp_path / f"cache{cores}"
            stages = pipeline.Stages(cfg, str(tmp_path / f"out{cores}"), str(cache))
            run = stages.run(cfg.seed, "factorize")
            names = [sim.metagraph for sim in run.sims]
            nnz = [sim.nnz for sim in run.sims]
            assert sorted(range(len(nnz)), key=lambda i: -nnz[i]) != list(range(len(nnz)))  # largest not first
            assert [pair.metagraph for pair in run.pairs] == names
            events = stages.cache_events["factorize"]
            assert [e["metagraph"] for e in events] == names and not any(e["hit"] for e in events)
            # each fit's own record, measured in its worker
            for event, pair, sim in zip(events, run.pairs, run.sims):
                assert event["read_s"] > 0 and event["fit_s"] > 0 and event["iters"] == len(pair.objective_history) - 1 >= 1
                assert event["objective"] == pair.objective_history[-1]
                dense = method == "mf" and factors.ObservedMatrix.from_csr(sim.matrix).dense is not None
                assert event["layout"] == ("dense" if dense else "csr")
            if method == "mf":  # both layouts run in one request
                assert {e["layout"] for e in events} == {"dense", "csr"}
            files[cores] = {p.name: p.read_bytes() for p in sorted(cache.glob("fac_*.npz"))}
        assert len(files[1]) == len(names) and files[1] == files[2]  # one file per factor pair

    @pytest.mark.parametrize("cores", [1, 2])
    def test_largest_job_first_results_in_job_order(self, monkeypatch, cores):
        monkeypatch.setattr(pipeline, "_available_cores", lambda: cores)
        jobs = [functools.partial(_stamp, i) for i in range(4)]
        results = pipeline._in_workers(jobs, [1, 7, 3, 5])
        assert [index for index, _ in results] == [0, 1, 2, 3]
        if cores == 1:  # one worker runs the jobs in the order they were submitted
            stamps = [stamp for _, stamp in results]
            assert stamps[1] < stamps[3] < stamps[2] < stamps[0]
        assert multiprocessing.active_children() == []

    def test_fits_run_on_one_blas_thread(self, monkeypatch):
        import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS beside numpy's

        before = _openblas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        monkeypatch.setattr(pipeline, "_available_cores", lambda: 2)
        assert pipeline._in_workers([_openblas_threads] * 2, [1, 1]) == [[1] * len(before)] * 2
        assert _openblas_threads() == before  # the calling process keeps its thread count

    @pytest.mark.parametrize("method", ["mf", "nnr"])
    def test_default_blas_threads_write_the_same_factors(self, dataset, tmp_path, method):
        root, _ = dataset
        doc = {
            "schema": os.path.join(str(root), "schema.json"),
            "metagraphs": os.path.join(str(root), "metagraphs.txt"),
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": 5},
            "features": {"method": method, "rank": 3, "mu": 0.5 if method == "nnr" else 0.05},
            "log_scale_similarity": True,
        }
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        files = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"out{threads}"
            subprocess.run([sys.executable, "-m", "hinfuse.cli", "factorize", "--config", str(config),
                            "--out-dir", str(out)], env=env, check=True, capture_output=True, timeout=120)
            files.append({p.name: p.read_bytes() for p in sorted((out / "cache").glob("fac_*.npz"))})
        assert files[0] and files[0] == files[1]

    def test_failed_job_cancels_pending_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_available_cores", lambda: 1)
        marks = [tmp_path / f"job{i}" for i in range(6)]
        jobs = [_fail] + [functools.partial(_sleep_and_mark, path) for path in marks]
        with pytest.raises(ValueError, match="planted failure"):
            pipeline._in_workers(jobs, [2] + [1] * len(marks))
        assert multiprocessing.active_children() == []
        assert sum(path.exists() for path in marks) < len(marks)


def _trace_without_seconds(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        row.pop("seconds")
    return rows


class TestForkedTraining:
    def lsp_config(self, root, schema, **overrides):
        solver = solvers.SolverConfig(algorithm="nmapg", step=0.01, max_iters=20, checkpoint_every=5, seed=5)
        return small_config(root, schema, mode="lsp", lambdas=(0.01, 0.05, 0.2), solver=solver, **overrides)

    def test_pool_size_leaves_training_outputs_unchanged(self, dataset, tmp_path, monkeypatch):
        root, schema = dataset
        cfg = self.lsp_config(str(root), schema)
        outputs = {}
        for cores in (1, 2):
            monkeypatch.setattr(pipeline, "_available_cores", lambda cores=cores: cores)
            out = tmp_path / f"out{cores}"
            report = pipeline.run_pipeline(cfg, str(out), str(tmp_path / f"cache{cores}"))
            assert multiprocessing.active_children() == []
            with np.load(out / "model.npz") as model:
                arrays = {name: model[name] for name in model.files}
            outputs[cores] = (report.comparable(), arrays, _trace_without_seconds(out / "trace.jsonl"))
        (comp1, model1, trace1), (comp2, model2, trace2) = outputs[1], outputs[2]
        assert comp1 == comp2 and len(comp1["lambda_series"]) == 3
        assert model1.keys() == model2.keys()
        assert all(np.array_equal(model1[name], model2[name]) for name in model1)
        assert trace1 == trace2 and len(trace1) == 4

    def test_each_lambda_fit_has_a_record_from_its_worker(self, dataset, tmp_path, monkeypatch):
        root, schema = dataset
        calls = []
        train = solvers.train

        def counted(*args):
            calls.append(args)
            return train(*args)

        monkeypatch.setattr(pipeline.solvers, "train", counted)
        monkeypatch.setattr(pipeline, "_available_cores", lambda: 2)
        cfg = self.lsp_config(str(root), schema, repeats=2)
        out = tmp_path / "out"
        report = pipeline.run_pipeline(cfg, str(out))
        assert calls == []  # every fit ran in a worker
        events = json.loads((out / "metrics.json").read_text())["train_events"]
        assert events == report.train_events
        assert [e["lambda"] for e in events] == list(cfg.lambdas) * cfg.repeats  # grid order, per repeat
        for event in events:
            assert set(event) == {"lambda", "train_s", "iters", "grad_evals"}
            assert event["train_s"] > 0 and event["iters"] == cfg.solver.max_iters
            assert event["grad_evals"] >= event["iters"]
        # the selected fit's record matches the last line of the trace it wrote
        last = json.loads((out / "trace.jsonl").read_text().splitlines()[-1])
        selected = events[list(cfg.lambdas).index(report.selected_lambda)]
        assert (selected["iters"], selected["grad_evals"]) == (last["iter"], last["grad_evals_over_N"])
        # timings stay out of the determinism view and the lambda series
        assert "train_events" not in report.comparable()
        assert all(set(entry) == {"lambda", "rmse_valid", "nnz"} for entry in report.lambda_series)

    def test_divergence_in_a_worker_fails_the_train_stage(self, dataset, tmp_path, capsys):
        root, _ = dataset
        doc = {
            "schema": os.path.join(str(root), "schema.json"),
            "metagraphs": os.path.join(str(root), "metagraphs.txt"),
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": 5},
            "features": {"method": "mf", "rank": 3, "mu": 0.05},
            "log_scale_similarity": True,
            "fm": {"K": 3, "mode": "lsp", "lambda": [0.01, 0.05, 0.2]},
            "solver": {"algorithm": "nmapg", "step": 50.0, "max_iters": 20, "seed": 5},
        }
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.match(r"\[train\] objective diverged at iteration \d+ \(step 25\.0\)", err)
        assert multiprocessing.active_children() == []
        assert not (out / "metrics.json").exists()
