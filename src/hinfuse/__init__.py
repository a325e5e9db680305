"""Metagraph-based side-information fusion for rating prediction.

The library splits into the stages of the pipeline:

* :mod:`hinfuse.hin` — typed graph ingestion, validation, rating splits.
* :mod:`hinfuse.metagraph` — the metagraph DSL, plan compilation to sparse
  matrix, Hadamard and face-splitting products, and a brute-force counting oracle.
* :mod:`hinfuse.factors` — low-rank latent features per similarity matrix
  (regularized factorization or nuclear-norm completion).
* :mod:`hinfuse.fmg` — the group-sparse factorization machine: features,
  prediction, convex/LSP regularizers, gradients and the group prox.
* :mod:`hinfuse.solvers` — nmAPG, proximal SVRG and proximal SGD.
* :mod:`hinfuse.pipeline` — config-driven orchestration with caching.
"""

from .hin import (
    EntitySet,
    HinStore,
    RatingSet,
    RelationDecl,
    attach_ratings,
    ingest,
    load_edges,
    split_ratings,
    validate,
)
from .metagraph import (
    ExecutionPlan,
    MetagraphSpec,
    brute_force_count,
    brute_force_matrix,
    bundled_metagraphs,
    compile_plan,
    execute_plan,
    format_metagraph,
    load_metagraph_file,
    parse_metagraph,
    parse_metagraphs,
)
from .factors import FactorPair, ObservedMatrix, factorize_mf, factorize_nnr, svt
from .fmg import (
    FeatureTable,
    FmParams,
    GroupLayout,
    RegConfig,
    augmented_grad,
    factor_blocks,
    mse_loss,
    objective,
    param_nnz_ratio,
    predict_batch,
    prox_group,
    reg_value,
    rmse,
)
from .solvers import (
    SolverConfig,
    TrainProblem,
    TrainTrace,
    prox_gradient_residual,
    train,
    train_nmapg,
    train_sgd,
    train_svrg,
)
from .pipeline import ExperimentConfig, MetricsReport, report_selected, run_pipeline

__version__ = "0.1.0"
