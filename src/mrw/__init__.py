"""mrw -- a workbench for exact ranks and certified monotone-rank bounds.

The package builds explicit matrix/tensor families (squared-difference
distance matrices, degree-d coefficient flattenings, divisibility tensors,
correlation distributions), computes exact ranks over the rationals, brackets
monotone (nonnegative) rank with certified combinatorial lower bounds and
searched upper-bound witnesses, and derives the downstream complexity reports
(branching-program level profiles, hidden-variable simulation cost, and
multiparty communication bounds).
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DimensionError,
    ParseError,
    UnsupportedRankError,
    ValidationError,
    WorkbenchError,
)
from .ratlinalg import (
    CharPoly,
    RatMatrix,
    char_poly_exact,
    det_exact,
    rank_exact,
)
from .dtensor import DenseTensor
from .constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    build_correlation,
    divisibility_tensor,
    edm,
    flattening,
    offset_matrix,
    offset_square_matrix,
    outcome_distribution,
    quantum_distribution,
)
from .numkit import (
    CpDecomposition,
    NonnegFactorization,
    SearchBudget,
    SpectralPair,
    antisym_spectral,
    cp_als,
    nmf_search,
    verify_nonneg_factorization,
)
from .bounds import (
    BoxCoverResult,
    MrBoundReport,
    SupportPattern,
    box_cover_exact,
    mr_bounds,
    support_pattern,
)
from .models import (
    AbpProfile,
    CommBoundReport,
    HiddenVariableModel,
    abp_profile,
    comm_ladder,
    comm_report,
    dcc_exact_2party,
    divisibility_rank_witness,
    edm_folding_factorization,
    exact_unit_factorizations,
    hv_model_from_factorization,
    hv_sample,
)
from .verify import VerifyReport, run_verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
