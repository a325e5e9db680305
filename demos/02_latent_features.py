"""Latent features from a sparse similarity matrix: factorization vs completion.

Plants a low-rank matrix, hides 70% of it, and recovers it two ways:
gradient-descent factorization at a fixed rank, and nuclear-norm-regularized
completion whose rank emerges from the shrinkage threshold.
"""

import numpy as np

from hinfuse import factors

rng = np.random.default_rng(0)
m, n, true_rank = 100, 80, 5
X = rng.normal(size=(m, true_rank)) @ rng.normal(size=(true_rank, n))
mask = rng.random((m, n)) < 0.3
obs = factors.ObservedMatrix.from_dense(X, mask)
print(f"planted rank-{true_rank} matrix, observing {obs.n_observed} of {m * n} entries")

# --- fixed-rank factorization ------------------------------------------------

mf = factors.factorize_mf(obs, rank=5, mu=1e-3, seed=0)
held_out = np.linalg.norm((mf.U @ mf.B.T - X)[~mask]) / np.linalg.norm(X[~mask])
print(f"MF   rank {mf.rank}: held-out relative error {held_out:.4f} "
      f"({len(mf.objective_history)} iterations, objective "
      f"{mf.objective_history[0]:.1f} -> {mf.objective_history[-1]:.4f})")

# --- nuclear-norm completion -------------------------------------------------

nnr = factors.factorize_nnr(obs, mu=0.1, seed=0, max_iters=500)
held_out = np.linalg.norm((nnr.U @ nnr.B.T - X)[~mask]) / np.linalg.norm(X[~mask])
print(f"NNR  rank {nnr.rank}: held-out relative error {held_out:.4f}")
print("the recovered rank exceeds the planted one; cap it when emitting features:")
capped = factors.factorize_nnr(obs, mu=0.1, seed=0, max_iters=500, max_rank=10)
print(f"  max_rank=10 -> rank {capped.rank}")

# --- the shrinkage primitive -------------------------------------------------

Z = np.diag([3.0, 1.0])
print(f"svt(diag(3,1), tau=2) =\n{factors.svt(Z, 2.0)}")

# stronger regularization trades accuracy for rank
for mu in (0.05, 0.5, 2.0):
    pair = factors.factorize_nnr(obs, mu=mu, seed=0, max_iters=300)
    err = np.linalg.norm((pair.U @ pair.B.T - X)[~mask]) / np.linalg.norm(X[~mask])
    print(f"mu={mu:<4}: rank {pair.rank:2d}, held-out error {err:.4f}")
