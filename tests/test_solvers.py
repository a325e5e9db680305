import dataclasses
import time

import numpy as np
import pytest

from hinfuse import fmg, solvers, synth


def bias_only_problem(label=3.7, n=200, d=4, K=2):
    """Zero features: only the bias can fit the labels, and the prox zeroes w and V."""
    layout = fmg.GroupLayout((("m1:user", 0, d // 2), ("m1:item", d // 2, d)), d)
    X = np.zeros((n, d))
    y = np.full(n, label)
    reg = fmg.RegConfig(mode="convex", lam_w=0.1, lam_v=0.1)
    return solvers.TrainProblem(fmg.FeatureTable.dense(X, y), layout, reg, K)


@dataclasses.dataclass
class NanAtCalls(solvers.TrainProblem):
    """A problem whose objective reads NaN on the calls numbered in ``nan_calls`` (from 1)."""

    nan_calls: tuple = ()
    calls: int = 0

    def value(self, params):
        self.calls += 1
        return float("nan") if self.calls in self.nan_calls else super().value(params)


def marginal_problem():
    return synth.planted_fm_problem(4, n_samples=400, n_metagraphs=2, rank=3, K=2, lam=0.05)[0]


class TestNmapg:
    def test_bias_only_converges_to_label_mean(self):
        problem = bias_only_problem()
        cfg = solvers.SolverConfig(step=0.1, max_iters=300)
        params, _ = solvers.train_nmapg(problem, cfg)
        assert abs(params.b - 3.7) <= 1e-4
        assert np.all(params.w == 0.0) and np.all(params.V == 0.0)

    def test_large_lambda_zeroes_every_group(self):
        problem, _, _ = synth.planted_fm_problem(0, n_samples=400, n_metagraphs=2, rank=3, K=2, lam=50.0)
        cfg = solvers.SolverConfig(step=0.02, max_iters=150)
        params, _ = solvers.train_nmapg(problem, cfg)
        assert np.all(params.w == 0.0) and np.all(params.V == 0.0)

    def test_acceptance_inequality_on_extrapolated_iterates(self):
        problem, _, _ = synth.planted_fm_problem(1, n_samples=500, n_metagraphs=2, rank=4, K=3, lam=0.05)
        cfg = solvers.SolverConfig(step=0.01, max_iters=120)
        _, trace = solvers.train_nmapg(problem, cfg)
        delta = solvers.SUFFICIENT_DECREASE
        checked = 0
        for rec in trace.records:
            if rec.extra["branch"] == "extrapolated":
                assert rec.objective <= rec.extra["c_before"] - delta * rec.extra["delta_sq"] + 1e-10
                checked += 1
        assert checked > 0

    def test_history_average_bounded_below_by_best_objective(self):
        problem, _, _ = synth.planted_fm_problem(2, n_samples=500, n_metagraphs=2, rank=4, K=3, lam=0.05)
        cfg = solvers.SolverConfig(step=0.01, max_iters=100)
        _, trace = solvers.train_nmapg(problem, cfg)
        objectives = trace.column("objective")
        cs = np.array([r.extra["c"] for r in trace.records])
        running_min = np.minimum.accumulate(objectives)
        assert np.all(cs >= running_min - 1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_last_iterate(self):
        problem, _, _ = synth.planted_fm_problem(3, n_samples=300, n_metagraphs=2, rank=4, K=3, lam=0.01)
        cfg = solvers.SolverConfig(step=1e6, max_iters=50)
        with pytest.raises(solvers.DivergenceError) as err:
            solvers.train_nmapg(problem, cfg)
        assert err.value.params is not None

    def test_marginal_step_trains_without_raising(self):
        _, trace = solvers.train_nmapg(marginal_problem(), solvers.SolverConfig(step=0.04, max_iters=150))
        assert np.isfinite(trace.records[-1].objective)

    def test_halving_restarts_at_half_the_step(self):
        # calls 2 and 3 are the first candidate and its fallback: the step halves once, and the
        # run restarts from the start, as a fresh run at half the step plus the two gradients spent
        problem = marginal_problem()
        params, trace = solvers.train_nmapg(NanAtCalls(**vars(problem), nan_calls=(2, 3)),
                                            solvers.SolverConfig(step=0.04, max_iters=30))
        fresh, fresh_trace = solvers.train_nmapg(problem, solvers.SolverConfig(step=0.02, max_iters=30))
        assert [r.extra["step"] for r in trace.records] == [0.02] * 30
        assert [r.objective for r in trace.records] == [r.objective for r in fresh_trace.records]
        assert [r.grad_evals - f.grad_evals for r, f in zip(trace.records, fresh_trace.records)] == [2.0] * 30
        for got, want in zip((params.b, params.w, params.V), (fresh.b, fresh.w, fresh.V)):
            assert np.array_equal(got, want)

    def test_divergence_after_halving_raises(self):
        problem = NanAtCalls(**vars(marginal_problem()), nan_calls=(2, 3, 4, 5))
        with pytest.raises(solvers.DivergenceError, match=r"^objective diverged at iteration 1 \(step 0.02\)$"):
            solvers.train_nmapg(problem, solvers.SolverConfig(step=0.04, max_iters=30))


class TestSvrg:
    def test_recovers_least_squares_when_unregularized(self):
        rng = np.random.default_rng(0)
        d, n = 6, 3000
        layout = fmg.GroupLayout((("m1:user", 0, 3), ("m1:item", 3, 6)), d)
        X = rng.normal(size=(n, d))
        w_true = rng.normal(size=d)
        y = 1.5 + X @ w_true
        # w unregularized; lam_v so large that the first prox step zeroes V, which then stays 0
        reg = fmg.RegConfig(mode="convex", lam_w=0.0, lam_v=1e6)
        problem = solvers.TrainProblem(fmg.FeatureTable.dense(X, y), layout, reg, K=2)
        cfg = solvers.SolverConfig(step=0.05, max_iters=60, seed=1)
        params, _ = solvers.train_svrg(problem, cfg)
        assert np.all(params.V == 0.0)
        design = np.hstack([np.ones((n, 1)), X])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(params.b - coef[0]) <= 1e-3
        assert np.max(np.abs(params.w - coef[1:])) <= 1e-3

    def test_snapshot_direction_equals_full_gradient(self):
        problem, _, _ = synth.planted_fm_problem(6, n_samples=256, n_metagraphs=2, rank=3, K=2, lam=0.02)
        cfg = solvers.SolverConfig(step=0.01, max_iters=1, batch_size=32, inner_steps=8, seed=5)
        params, _ = solvers.train_svrg(problem, cfg)
        # replicate epoch 1 by hand: at the snapshot the variance-reduced
        # direction collapses to the full gradient, whatever the batch
        start = solvers.init_params(problem, cfg)
        full = problem.grad(start)
        rng = np.random.default_rng(5)
        batch = problem.table.rows(rng.integers(0, problem.n, size=32))
        g1 = problem.grad(start, batch)
        g0 = problem.grad(start, batch)
        direction = tuple(a - b + f for a, b, f in zip(g1, g0, full))
        for got, want in zip(direction, full):
            assert np.array_equal(np.asarray(got), np.asarray(want))
        first_inner = problem.prox_step(start, full, cfg.step)
        assert np.isfinite(fmg.predict_batch(first_inner, problem.table.rows([0]))[0])

    def test_batch_plan_validation(self):
        problem = bias_only_problem(n=100)
        cfg = solvers.SolverConfig(batch_size=32, inner_steps=2)
        with pytest.raises(ValueError, match="must equal N"):
            solvers.train_svrg(problem, cfg)

    def test_same_seed_identical_traces(self):
        problem, _, _ = synth.planted_fm_problem(7, n_samples=300, n_metagraphs=2, rank=3, K=2, lam=0.05)
        cfg = solvers.SolverConfig(step=0.01, max_iters=10, seed=9)
        p1, t1 = solvers.train_svrg(problem, cfg)
        p2, t2 = solvers.train_svrg(problem, cfg)
        assert np.array_equal(p1.w, p2.w) and np.array_equal(p1.V, p2.V) and p1.b == p2.b
        assert t1.column("objective").tolist() == t2.column("objective").tolist()

    def test_returns_average_of_inner_iterates(self):
        problem = bias_only_problem(n=64)
        cfg = solvers.SolverConfig(step=0.1, max_iters=1, batch_size=8, inner_steps=8, seed=2)
        params, _ = solvers.train_svrg(problem, cfg)
        # with zero features the bias path is deterministic: replicate it
        cur = solvers.init_params(problem, cfg)
        full = problem.grad(cur)
        rng = np.random.default_rng(2)
        inner = cur
        bs = []
        for _ in range(8):
            batch = problem.table.rows(rng.integers(0, problem.n, size=8))
            g1 = problem.grad(inner, batch)
            g0 = problem.grad(cur, batch)
            direction = tuple(a - b + f for a, b, f in zip(g1, g0, full))
            inner = problem.prox_step(inner, direction, cfg.step)
            bs.append(inner.b)
        assert params.b == pytest.approx(np.mean(bs), abs=1e-14)


class TestSgd:
    def test_bias_only_approaches_label_mean(self):
        problem = bias_only_problem()
        cfg = solvers.SolverConfig(step=0.1, max_iters=60, step_decay=0.001)
        params, _ = solvers.train_sgd(problem, cfg)
        assert abs(params.b - 3.7) <= 1e-2

    def test_no_divergence_without_decay_on_quadratic(self):
        problem = bias_only_problem(n=500)
        cfg = solvers.SolverConfig(step=0.05, max_iters=40, step_decay=0.0, seed=3)
        params, trace = solvers.train_sgd(problem, cfg)
        assert np.all(np.isfinite(trace.column("objective")))

    def test_same_seed_identical_traces(self):
        problem, _, _ = synth.planted_fm_problem(8, n_samples=300, n_metagraphs=2, rank=3, K=2, lam=0.05)
        cfg = solvers.SolverConfig(step=0.01, max_iters=10, seed=4)
        _, t1 = solvers.train_sgd(problem, cfg)
        _, t2 = solvers.train_sgd(problem, cfg)
        assert t1.column("objective").tolist() == t2.column("objective").tolist()


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ["svrg", "sgd"])
    def test_error_carries_a_finite_iterate(self, algorithm):
        problem, _, _ = synth.planted_fm_problem(3, n_samples=300, n_metagraphs=2, rank=4, K=3, lam=0.01)
        cfg = solvers.SolverConfig(algorithm=algorithm, step=1e3, batch_size=30)
        with pytest.raises(solvers.DivergenceError, match="diverged in epoch 1") as err:
            solvers.train(problem, cfg)
        assert np.isfinite(problem.value(err.value.params))

    @pytest.mark.parametrize("algorithm", ["nmapg", "svrg", "sgd"])
    def test_non_finite_start_rejected(self, algorithm):
        # one objective evaluation, at the start, and no training step
        problem = NanAtCalls(**vars(marginal_problem()), nan_calls=(1,))
        with pytest.raises(solvers.DivergenceError, match="^objective is non-finite at initialization$"):
            solvers.train(problem, solvers.SolverConfig(algorithm=algorithm, max_iters=3))
        assert problem.calls == 1


class TestTrace:
    def test_grad_eval_counter_monotone(self):
        problem, _, _ = synth.planted_fm_problem(9, n_samples=300, n_metagraphs=2, rank=3, K=2, lam=0.05)
        for trainer in (solvers.train_nmapg, solvers.train_svrg, solvers.train_sgd):
            _, trace = trainer(problem, solvers.SolverConfig(step=0.01, max_iters=8))
            evals = trace.column("grad_evals")
            assert np.all(np.diff(evals) >= 0)

    def test_append_rejects_decreasing_counter(self):
        trace = solvers.TrainTrace()
        trace.append(solvers.TraceRecord(1, 5.0, 1.0))
        with pytest.raises(ValueError, match="must not decrease"):
            trace.append(solvers.TraceRecord(2, 4.0, 1.0))

    def test_jsonl_export(self, tmp_path):
        problem = bias_only_problem(n=50)
        cfg = solvers.SolverConfig(step=0.05, max_iters=3)
        _, trace = solvers.train_nmapg(problem, cfg)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        import json

        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert {"iter", "grad_evals_over_N", "objective", "rmse_valid", "nnz", "seconds"} <= set(lines[0])

    @pytest.mark.parametrize("checkpoint_every", [1, 4])
    @pytest.mark.parametrize("algorithm, seed, n_samples, n_valid, step", [
        ("nmapg", 10, 300, 60, 0.01),
        ("svrg", 10, 300, 60, 0.01),
        ("sgd", 10, 300, 60, 0.01),
        ("nmapg", 4, 400, 0, 0.04),  # the problem and step of test_marginal_step_trains_without_raising
    ])
    def test_last_record_is_at_the_returned_params(self, algorithm, seed, n_samples, n_valid, step,
                                                   checkpoint_every):
        # the pipeline reads each lambda's validation RMSE and nnz from the last record
        problem, _, _ = synth.planted_fm_problem(seed, n_samples=n_samples, n_metagraphs=2, rank=3, K=2,
                                                 lam=0.05, n_valid=n_valid)
        cfg = solvers.SolverConfig(algorithm=algorithm, step=step, max_iters=7, checkpoint_every=checkpoint_every)
        params, trace = solvers.train(problem, cfg)
        last = trace.records[-1]
        assert last.iteration == 7
        assert last.objective == problem.value(params)
        assert last.rmse_valid == problem.rmse_valid(params)
        assert last.nnz == fmg.param_nnz_ratio(params)

    def test_validation_rmse_recorded_when_given(self):
        problem, _, _ = synth.planted_fm_problem(
            10, n_samples=300, n_metagraphs=2, rank=3, K=2, lam=0.05, n_valid=60
        )
        _, trace = solvers.train_svrg(problem, solvers.SolverConfig(step=0.01, max_iters=5))
        assert all(r.rmse_valid is not None and np.isfinite(r.rmse_valid) for r in trace.records)


class TestCertificates:
    def test_prox_gradient_residual_small_after_training(self):
        problem, _, _ = synth.planted_fm_problem(11, n_samples=800, n_metagraphs=2, rank=4, K=3, lam=0.05)
        cfg = solvers.SolverConfig(step=0.02, max_iters=400)
        params, _ = solvers.train_nmapg(problem, cfg)
        assert solvers.prox_gradient_residual(params, problem, cfg) <= 1e-3

    def test_unknown_algorithm_rejected(self):
        problem = bias_only_problem(n=20)
        with pytest.raises(ValueError, match="solver.algorithm must be one of nmapg, svrg, sgd, got 'adam'"):
            solvers.train(problem, solvers.SolverConfig(algorithm="adam"))

    def test_algorithm_choices_are_the_trainers(self):
        (algorithm,) = [f for f in dataclasses.fields(solvers.SolverConfig) if f.name == "algorithm"]
        assert algorithm.metadata["choices"] == tuple(solvers.TRAINERS)

    def test_config_invariants_validated(self):
        with pytest.raises(ValueError, match="solver.step must be > 0, got 0.0"):
            solvers.SolverConfig(step=0.0)

    def test_cross_solver_agreement_small(self):
        problem, _, _ = synth.planted_fm_problem(12, n_samples=1000, n_metagraphs=2, rank=3, K=5,
                                                 lam=0.05, noise=0.5)
        p_nm, t_nm = solvers.train_nmapg(problem, solvers.SolverConfig(step=0.02, max_iters=400))
        p_sv, t_sv = solvers.train_svrg(problem, solvers.SolverConfig(step=0.02, max_iters=40))
        h_nm = t_nm.records[-1].objective
        h_sv = t_sv.records[-1].objective
        assert abs(h_nm - h_sv) <= 0.01 * min(h_nm, h_sv)


class TestPerIterationScaling:
    def test_full_gradient_time_tracks_sample_count(self):
        runs = {}
        for n in (20000, 40000):
            problem = synth.planted_fm_problem(13, n, n_metagraphs=2, rank=5, K=5)[0]
            params = solvers.init_params(problem, solvers.SolverConfig())
            fmg.mse_grad(params, problem.table)  # warm up
            runs[n] = (params, problem.table, [])
        # this thread's CPU time, sizes interleaved, best sample: another process on the cores adds
        # no time and slows neither size more, and no idle BLAS thread's spin-wait is counted
        for _ in range(7):
            for params, table, samples in runs.values():
                start = time.thread_time()
                fmg.mse_grad(params, table)
                samples.append(time.thread_time() - start)
        times = {n: min(samples) for n, (_, _, samples) in runs.items()}
        assert times[40000] / times[20000] <= 3.0
