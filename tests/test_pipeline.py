import json
import os
import re
import shutil
import time

import numpy as np
import pytest

from hinfuse import cli, factors, fmg, hin, metagraph, pipeline, solvers, synth

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


class TestRmse:
    def test_perfect_predictions(self):
        assert pipeline.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert pipeline.rmse([2.0, 4.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_mixed_errors(self):
        assert pipeline.rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.sqrt(25 / 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pipeline.rmse([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            pipeline.rmse([1.0], [1.0, 2.0])


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
        with pytest.raises(ValueError):
            pipeline.report_selected(params, layout, threshold=-1.0)


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


class TestRunPipeline:
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

    def test_fresh_cache_still_deterministic(self, dataset, tmp_path):
        root, schema = dataset
        cfg = small_config(str(root), schema)
        a = pipeline.run_pipeline(cfg, str(tmp_path / "a"), str(tmp_path / "ca"))
        b = pipeline.run_pipeline(cfg, str(tmp_path / "b"), str(tmp_path / "cb"))
        assert a.comparable() == b.comparable()

    def test_test_labels_only_read_at_evaluation(self, dataset, tmp_path):
        root, schema = dataset
        events = []
        pipeline.label_access_hook = lambda role, stage: events.append((role, stage))
        try:
            pipeline.run_pipeline(small_config(str(root), schema), str(tmp_path / "out"))
        finally:
            pipeline.label_access_hook = None
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
            run = pipeline._Stages(cfg, str(tmp_path / name)).run(cfg.seed, through="similarity")
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
            sims[len(select)] = pipeline._Stages(cfg, out).run(cfg.seed, through="similarity").sims
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
        rmses = pipeline._Stages(cfg, out).score_model(model, cfg.seed)
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
        with pytest.raises(ValueError, match="feature method"):
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
            expected = pipeline.rmse(np.clip(fmg.predict_batch(model.params, table), 1.0, 5.0), split.values)
            assert printed[split.role] == pytest.approx(expected, rel=1e-12), split.role

    @pytest.mark.parametrize("change", ["seed", "fractions"])
    def test_evaluate_under_another_split_rejected(self, dataset, tmp_path, capsys, monkeypatch, change):
        # another split's "test" ratings hold ones the model was trained on: refused before ingest
        root, _ = dataset
        out = str(tmp_path / "out")
        assert cli.main(["train", "--config", self.write_config(root, tmp_path), "--out-dir", out]) == 0
        capsys.readouterr()
        if change == "seed":
            args = ["--config", self.write_config(root, tmp_path), "--seed", "1"]
        else:
            split = {"fractions": [0.7, 0.2, 0.1], "seed": 5}
            args = ["--config", self.write_config(root, tmp_path, split=split)]
        calls = []
        monkeypatch.setattr(hin, "ingest", lambda *a, **k: calls.append("ingest"))
        assert cli.main(["evaluate", *args, "--out-dir", out]) == 1
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

    def test_evaluate_rejects_other_rating_range(self, dataset, tmp_path, capsys):
        root, _ = dataset
        out = str(tmp_path / "out")
        config = self.write_config(root, tmp_path)
        assert cli.main(["train", "--config", config, "--out-dir", out]) == 0
        capsys.readouterr()
        config = self.write_config(root, tmp_path, rating_range=[0.0, 5.0])
        assert cli.main(["evaluate", "--config", config, "--out-dir", out]) == 1
        assert "[evaluate]" in capsys.readouterr().err

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
        # the default nnz_budget refuses it before it is formed
        data = self.write_wide_store(tmp_path, 10001)
        config = self.write_config(data, tmp_path, optimize_plans=False)
        assert cli.main(["similarity", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[similarity] intermediate of shape (10001, 10001)") and "over budget" in err

    def test_similarity_default_planner_runs_wide_store(self, tmp_path, capsys):
        # the cost planner pairs mention~ with write~ and never forms the (user, review) product
        data = self.write_wide_store(tmp_path, 10001)
        config = self.write_config(data, tmp_path)
        assert cli.main(["similarity", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == "M8: 10001x1, nnz=10001 (computed)\n"

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
        ({"fm": {"K": 3, "lambda": [0.05], "eta_weighting": "sqrt "}}, "unknown eta weighting"),
        ({"fm": {"K": 3, "lambda": [0.05], "mode": "lps"}}, "unknown fm mode"),
        ({"solver": {"algorithm": "svgr", "step": 0.02}}, "unknown algorithm"),
        ({"solver": {"step": "0.1"}}, "solver.step must be a number, got '0.1'"),
        ({"features": {"rank": 2.5}}, "features.rank must be an integer, got 2.5"),
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

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_repeats_below_one_rejected(self, dataset, tmp_path, capsys, where):
        root, _ = dataset
        config = self.write_config(root, tmp_path, **({"repeats": 0} if where == "config" else {}))
        out = str(tmp_path / "out")
        argv = ["pipeline", "--config", config, "--out-dir", out]
        assert cli.main(argv + (["--repeats", "0"] if where == "flag" else [])) == 1
        assert capsys.readouterr().err.startswith("[config] repeats must be >= 1, got 0")
        assert not os.path.exists(os.path.join(out, "metrics.json"))

    def test_seed_override(self, dataset, tmp_path):
        root, _ = dataset
        config = self.write_config(root, tmp_path)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert cli.main(["pipeline", "--config", config, "--out-dir", out1, "--seed", "5"]) == 0
        assert cli.main(["pipeline", "--config", config, "--out-dir", out2, "--seed", "6"]) == 0
        with open(os.path.join(out1, "metrics.json")) as fh:
            a = json.load(fh)
        with open(os.path.join(out2, "metrics.json")) as fh:
            b = json.load(fh)
        assert a["rmse"]["test"] != b["rmse"]["test"]
