"""hodlrpeel: near-optimal HODLR approximation of black-box linear operators.

The operator is touched only through blocked products with A and A^T; the
peeling algorithms recover the hierarchy level by level using randomly
perforated Gaussian sketches, with deterministic query counts and executable
error-bound checks.
"""

from .hodlr import (
    HodlrMatrix,
    assemble,
    best_hodlr,
    hodlr_apply,
    load,
    random_hodlr,
    save,
)
from .linops import (
    LinearOperator,
    QueryCounter,
    make_dense_operator,
    make_exp_hard_instance,
    make_hard_block_instance,
    make_kernel_operator,
    make_poisson_operator,
)
from .lowrank import (
    LowRankFactors,
    NoiseModel,
    gn_error_bound,
    gn_from_sketches,
    gnm,
    orth,
    pinv_solve,
    rsvd,
    rsvd_perturb_bound_rhs,
    truncated_svd,
)
from .peel import (
    GENERALIZED_NYSTROM,
    RSVD,
    PeelConfig,
    PeelReport,
    StructureViolationError,
    exact_config,
    exact_recover,
    expected_queries,
    params_for_beta,
    run_peel,
    residual_sketch,
)
from .sketch import (
    BlockSelector,
    SketchFamily,
    bullet,
    sample_countsketch,
    sample_perf_countsketch,
    sample_rand_perf_gaussian,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
