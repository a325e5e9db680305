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

Importing the package first registers ``numpy.f2py`` and ``numpy.testing`` as
lazy modules (:class:`importlib.util.LazyLoader`), bound on ``numpy``.  SciPy's
vendored array-API layer, imported with :mod:`scipy.sparse`, copies every
public name of ``numpy``, and NumPy 2 lists both modules there and imports
them on access: about 0.2 s and 8 MB of every process's start-up, for two
modules this package never uses.  With the lazy modules bound, the copy takes
a reference and runs neither; the first attribute read (or an ``import`` of
either) still loads the real module.  A module already imported, or absent
from the install, is left as it is.
"""

import importlib.util
import sys

import numpy


def _defer_numpy_submodules():
    for name in ("numpy.f2py", "numpy.testing"):
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        setattr(numpy, name.rpartition(".")[2], module)


_defer_numpy_submodules()  # before .hin imports scipy.sparse

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
