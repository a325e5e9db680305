"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The final criterion needs an externally supplied
dataset and is skipped unless ``HINFUSE_YELP200K_CONFIG`` points at an
experiment config for it.
"""

import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hinfuse import factors, fmg, metagraph as mg, pipeline, solvers, synth

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


def test_01_metagraph_oracle_equivalence():
    start = time.perf_counter()
    specs = [mg.parse_metagraph(text) for text in synth.ORACLE_METAGRAPHS]
    n_blocks = sum(
        any(isinstance(c, mg.Block) for c in spec.connectors)
        or any(
            isinstance(inner, mg.Block)
            for c in spec.connectors
            if isinstance(c, mg.Block)
            for br in c.branches
            for inner in br.connectors
        )
        for spec in specs
    )
    assert len(specs) == 10 and n_blocks >= 3
    checks = 0
    for seed in range(200):
        store = synth.random_binary_hin(seed)
        for spec in specs:
            plan = mg.compile_plan(spec, store)
            got = np.asarray(mg.execute_plan(plan, store).matrix.todense()).astype(np.int64)
            want = mg.brute_force_matrix(spec, store)
            assert np.array_equal(got, want), (seed, spec.name)
            checks += got.size
    elapsed = time.perf_counter() - start
    assert elapsed <= 300
    report(1, f"200 HINs x 10 metagraphs, {checks} (u,b) pairs exact in {elapsed:.0f}s")


def test_02_m3_m9_worked_examples():
    from test_metagraph import store_with, M9_TEXT

    store = store_with({"U": 2, "B": 2}, {"rate": ("U", "B", [[1, 1], [1, 0]])})
    spec = mg.parse_metagraph("M3: U -[rate]- B -[rate~]- U -[rate]- B")
    sim = mg.execute_plan(mg.compile_plan(spec, store), store)
    assert np.array_equal(np.asarray(sim.matrix.todense()), [[3, 2], [2, 1]])

    m9_store = store_with(
        {"U": 3, "R": 4, "A": 2, "B": 3},
        {
            "write": ("U", "R", np.eye(3, 4)),
            "mention": ("R", "A", np.eye(4, 2)),
            "about": ("R", "B", np.eye(4, 3)),
            "rate": ("U", "B", np.eye(3)),
        },
    )
    plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), m9_store)
    hadamards = [i for i, s in enumerate(plan.steps) if isinstance(s, mg.HadamardStep)]
    muls = [i for i, s in enumerate(plan.steps) if isinstance(s, mg.MatMulStep)]
    assert len(hadamards) == 1
    branch_products = [i for i in muls if i < hadamards[0]]
    outer_chain = [i for i in muls if i > hadamards[0]]
    assert len(branch_products) == 2 and len(outer_chain) == 3
    for i in branch_products:
        step = plan.steps[i]
        left, right = plan.steps[step.left], plan.steps[step.right]
        assert left.relation == right.relation and left.transposed != right.transposed
    report(2, "M3 gives [[3,2],[2,1]]; M9 plan = 2 branch products + Hadamard + outer chain")


def test_03_mf_nnr_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 5)) @ rng.normal(size=(5, 80))
    mask = rng.random((100, 80)) < 0.3
    obs = factors.ObservedMatrix.from_dense(X, mask)

    mf = factors.factorize_mf(obs, 5, mu=1e-3, seed=0)
    mf_err = np.linalg.norm((mf.U @ mf.B.T - X)[~mask]) / np.linalg.norm(X[~mask])
    assert mf_err <= 0.05

    nnr, state = factors.factorize_nnr(obs, mu=0.1, seed=0, max_iters=500, return_state=True)
    nnr_err = np.linalg.norm((nnr.U @ nnr.B.T - X)[~mask]) / np.linalg.norm(X[~mask])
    assert nnr_err <= 0.05

    iterate = (state.P * state.sigma) @ state.Q.T
    split_err = np.linalg.norm(nnr.U @ nnr.B.T - iterate)
    assert split_err <= 1e-10 * np.linalg.norm(iterate)

    from test_factors import svt_oracle

    for trial in range(25):
        Z = rng.normal(size=(6, 5))
        tau = rng.uniform(0.0, 2.0)
        assert np.linalg.norm(factors.svt(Z, tau) - svt_oracle(Z, tau)) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed <= 120
    report(3, f"held-out error MF {mf_err:.4f} / NNR {nnr_err:.4f} (<=5%), split identity "
              f"{split_err:.1e}, svt vs eigen-oracle <=1e-8, {elapsed:.0f}s")


def test_04_gradient_correctness():
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(50):
        mode = "convex" if trial % 2 == 0 else "lsp"
        n_groups = int(rng.integers(1, 4))
        widths = rng.integers(1, 9, size=n_groups)
        d = 2 * int(widths.sum())
        if d > 16:
            widths = np.maximum(widths // 2, 1)
            d = 2 * int(widths.sum())
        K = int(rng.integers(1, 6))
        layout = fmg.GroupLayout.from_ranks([f"m{i}" for i in range(n_groups)], widths.tolist())
        cfg = fmg.RegConfig(mode=mode, lam_w=rng.uniform(0.05, 0.8), lam_v=rng.uniform(0.05, 0.8))
        params = fmg.FmParams(rng.normal(), rng.normal(size=layout.d), rng.normal(size=(layout.d, K)))
        if trial % 7 == 0:  # exercise the group-norm-zero point too
            params.w[:] = 0.0
        n = int(rng.integers(2, 6))
        y = rng.normal(size=n)
        if trial % 3 == 0:  # dense rows: a single block indexed by arange(n)
            table = fmg.FeatureTable.dense(rng.normal(size=(n, layout.d)), y)
        else:  # user and item blocks that several rows share, as the pipeline builds them
            half = layout.d // 2
            users, items = rng.normal(size=(3, half)), rng.normal(size=(2, half))
            table = fmg.FeatureTable(y, ((users, rng.integers(0, 3, n)), (items, rng.integers(0, 2, n))))
            if trial % 3 == 2:  # a mini-batch drawn with repeats
                table = table.rows(rng.integers(0, n, n))
        got = fmg.augmented_grad(params, table, layout, cfg)

        eps = 1e-5

        def value(p):
            return fmg.mse_loss(p, table) + fmg.smooth_surplus(p, layout, cfg)

        flat = np.concatenate([[params.b], params.w, params.V.ravel()])
        got_flat = np.concatenate([[got[0]], got[1], got[2].ravel()])
        fd = np.zeros_like(flat)
        for i in range(len(flat)):
            bump = flat.copy()
            bump[i] += eps
            hi = value(fmg.FmParams(bump[0], bump[1 : 1 + layout.d],
                                    bump[1 + layout.d :].reshape(layout.d, K)))
            bump[i] -= 2 * eps
            lo = value(fmg.FmParams(bump[0], bump[1 : 1 + layout.d],
                                    bump[1 + layout.d :].reshape(layout.d, K)))
            fd[i] = (hi - lo) / (2 * eps)
        rel = np.max(np.abs(fd - got_flat)) / max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-4, (trial, mode, rel)

        h = fmg.objective(params, table, layout, cfg)
        h_bar = fmg.augmented_objective(params, table, layout, cfg)
        assert abs(h - h_bar) <= 1e-12 * max(1.0, abs(h))
    report(4, f"50 finite-difference checks on dense rows, shared entity blocks and mini-batches, "
              f"worst relative error {worst:.2e} (<=1e-4); "
              "direct and reformulated objectives identical to 1e-12")


def test_05_prox_correctness():
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(100):
        width = int(rng.integers(1, 7))
        matrix_block = trial % 2 == 1
        shape = (width, int(rng.integers(1, 4))) if matrix_block else (width,)
        z = rng.normal(scale=2.0, size=shape)
        tau = rng.uniform(0.0, 3.0)
        layout = fmg.GroupLayout((("g:user", 0, width),), width)  # single group covers the block
        got = fmg.prox_group(z, layout, np.array([tau]))

        # independent 1-d reduction: minimize over the block magnitude; the
        # closest point of a given norm to z lies along z's direction
        norm_z = np.linalg.norm(z)

        def radial(s):
            return 0.5 * (s - norm_z) ** 2 + tau * s

        best = minimize_scalar(radial, bounds=(0.0, norm_z + 2 * tau + 1.0), method="bounded",
                               options={"xatol": 1e-12})
        want = best.x * (z / norm_z) if norm_z > 0 else np.zeros_like(z)
        deviation = np.max(np.abs(got - want))
        worst = max(worst, deviation)
        assert deviation <= 1e-6, (trial, deviation)

    # edge cases are exact
    layout = fmg.GroupLayout((("g:user", 0, 3),), 3)
    z = np.array([1.0, -2.0, 2.0])
    assert np.array_equal(fmg.prox_group(z, layout, np.array([0.0])), z)
    assert np.all(fmg.prox_group(z, layout, np.array([3.0])) == 0.0)
    report(5, f"100 randomized prox cases vs 1-d numerical minimizer, worst deviation "
              f"{worst:.1e} (<=1e-6); identity and full-shrinkage exact")


def test_06_solver_agreement_and_certificates():
    start = time.perf_counter()
    problem, _, _ = synth.planted_fm_problem(
        7, n_samples=10000, n_metagraphs=4, rank=10, K=10, lam=0.05, noise=1.0
    )
    assert problem.layout.d == 80 and problem.n == 10000

    cfg_nm = solvers.SolverConfig(algorithm="nmapg", step=0.01, max_iters=600, checkpoint_every=10)
    p_nm, tr_nm = solvers.train_nmapg(problem, cfg_nm)
    cfg_sv = solvers.SolverConfig(algorithm="svrg", step=0.01, max_iters=40, batch_size=64)
    p_sv, tr_sv = solvers.train_svrg(problem, cfg_sv)
    cfg_sgd = solvers.SolverConfig(algorithm="sgd", step=0.01, max_iters=200, batch_size=64,
                                   step_decay=0.02)
    p_sgd, tr_sgd = solvers.train_sgd(problem, cfg_sgd)

    h_nm = tr_nm.records[-1].objective
    h_sv = tr_sv.records[-1].objective
    agreement = abs(h_nm - h_sv) / min(h_nm, h_sv)
    assert agreement <= 0.01

    r_nm = solvers.prox_gradient_residual(p_nm, problem, cfg_nm)
    r_sv = solvers.prox_gradient_residual(p_sv, problem, cfg_sv)
    assert r_nm <= 1e-3 and r_sv <= 1e-3

    best = min(h_nm, h_sv, tr_sgd.records[-1].objective)
    target = 1.01 * best

    def evals_to_target(trace):
        for rec in trace.records:
            if rec.objective <= target:
                return rec.grad_evals
        return float("inf")

    sv_evals = evals_to_target(tr_sv)
    sgd_evals = evals_to_target(tr_sgd)
    assert sv_evals < sgd_evals
    elapsed = time.perf_counter() - start
    assert elapsed <= 600
    report(6, f"objectives within {agreement:.2e}; residuals {r_nm:.1e}/{r_sv:.1e}; "
              f"SVRG target in {sv_evals:.1f} evals vs SGD {sgd_evals:.1f}; {elapsed:.0f}s")


def _selection_sweep(mode):
    rows = []
    for lam in pipeline.DEFAULT_LAMBDA_GRID:
        problem, _, _ = synth.planted_fm_problem(
            11, n_samples=4000, n_metagraphs=6, rank=5, K=5, relevant=[0, 1],
            noise=0.1, lam=lam, mode=mode, n_valid=800,
        )
        cfg = solvers.SolverConfig(algorithm="nmapg", step=0.02, max_iters=400, checkpoint_every=400)
        params, _ = solvers.train_nmapg(problem, cfg)
        rmse_v = float(np.sqrt(np.mean((fmg.predict_batch(params, problem.valid) - problem.valid.y) ** 2)))
        wn = fmg.group_norms(params.w, problem.layout)
        vn = fmg.group_norms(params.V, problem.layout)
        per_metagraph = [
            float(np.sqrt(wn[l] ** 2 + wn[l + 6] ** 2 + vn[l] ** 2 + vn[l + 6] ** 2))
            for l in range(6)
        ]
        rows.append({"lam": lam, "rmse": rmse_v, "nnz": fmg.param_nnz_ratio(params),
                     "norms": per_metagraph})
    return rows


def test_07_group_selection_and_lsp_sparsity():
    convex = _selection_sweep("convex")
    lsp = _selection_sweep("lsp")

    def selective(rows):
        return [
            r for r in rows
            if max(r["norms"][2:]) <= 1e-3 and min(r["norms"][:2]) >= 0.1
        ]

    for mode, rows in (("convex", convex), ("lsp", lsp)):
        assert selective(rows), f"no lambda in the default grid is selective in {mode} mode"

    convex_best = min(convex, key=lambda r: r["rmse"])
    band = 1.02 * convex_best["rmse"]
    lsp_candidates = [r for r in lsp if r["rmse"] <= band]
    assert lsp_candidates, "LSP never reaches the convex RMSE band"
    lsp_nnz = min(r["nnz"] for r in lsp_candidates)
    assert lsp_nnz < convex_best["nnz"]
    lam_sel = selective(convex)[0]["lam"]
    report(7, f"lambda={lam_sel} zeroes metagraphs 3-6 and keeps 1-2; LSP nnz {lsp_nnz:.3f} < "
              f"convex-best nnz {convex_best['nnz']:.3f} within the 2% RMSE band")


def test_08_all_metagraph_superiority(tmp_path):
    start = time.perf_counter()
    data_dir = str(tmp_path / "data")
    schema = synth.write_rating_dataset(data_dir, seed=0)

    def config(select, binarize=True, seed=3):
        return pipeline.ExperimentConfig(
            schema=schema,
            metagraphs=os.path.join(data_dir, "metagraphs.txt"),
            select=select,
            fractions=(0.8, 0.1, 0.1),
            seed=seed,
            binarize_ratings=binarize,
            log_scale_similarity=True,
            feature_method="mf",
            rank=4,
            mu=0.05,
            K=4,
            lambdas=(0.002, 0.005, 0.01, 0.02),
            solver=solvers.SolverConfig(algorithm="svrg", step=0.02, max_iters=100, seed=3),
        )

    cache = str(tmp_path / "cache")
    results = {}
    for name in ("M1", "M2", "M3", "M4"):
        results[name] = pipeline.run_pipeline(
            config([name]), str(tmp_path / f"out_{name}"), cache
        ).rmse_test
    results["rating-only"] = pipeline.run_pipeline(
        config(["M1"], binarize=False), str(tmp_path / "out_raw"), cache
    ).rmse_test
    all_rmse = pipeline.run_pipeline(config(None), str(tmp_path / "out_all"), cache).rmse_test

    margins = {k: (v - all_rmse) / v for k, v in results.items()}
    assert all(m >= 0.05 for m in margins.values()), (all_rmse, results)
    elapsed = time.perf_counter() - start
    best_single = min(results, key=results.get)
    report(8, f"all-metagraphs {all_rmse:.4f} beats {best_single} {results[best_single]:.4f} "
              f"by {margins[best_single] * 100:.1f}% (>=5% over every config); {elapsed:.0f}s")


def test_09_scalability():
    start = time.perf_counter()
    sizes = [12500, 25000, 50000, 100000, 200000]
    times = []
    # this thread's CPU time, with BLAS on this thread alone: another process on the cores adds
    # no time, and no wait for a BLAS thread that another process keeps off a core is counted
    blas = pipeline._openblas_thread_calls()
    threads = [get_threads() for _, get_threads in blas]
    for set_threads, _ in blas:
        set_threads(1)
    try:
        for n in sizes:
            problem = synth.scaled_fm_problem(5, n)
            t0 = time.thread_time()
            solvers.train_svrg(problem, solvers.SolverConfig(step=0.01, max_iters=6, checkpoint_every=6))
            solvers.train_nmapg(problem, solvers.SolverConfig(step=0.01, max_iters=60, checkpoint_every=60))
            times.append(time.thread_time() - t0)
    finally:
        for (set_threads, _), count in zip(blas, threads):
            set_threads(count)
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
    elapsed = time.perf_counter() - start
    assert r2 >= 0.95, (r2, times)
    assert elapsed <= 1800
    report(9, f"train time vs N linear fit R^2={r2:.4f} (>=0.95) over {sizes}; {elapsed:.0f}s")


@pytest.mark.skipif(
    "HINFUSE_YELP200K_CONFIG" not in os.environ,
    reason="optional: set HINFUSE_YELP200K_CONFIG to an experiment config for the "
           "user-supplied Yelp-200K-equivalent dataset",
)
def test_10_optional_paper_scale_reproduction(tmp_path):
    cfg = pipeline.ExperimentConfig.from_json(os.environ["HINFUSE_YELP200K_CONFIG"])
    result = pipeline.run_pipeline(cfg, str(tmp_path / "out"))
    assert 1.23 <= result.rmse_test <= 1.29
    report(10, f"user-supplied dataset test RMSE {result.rmse_test:.4f} in [1.23, 1.29]")
