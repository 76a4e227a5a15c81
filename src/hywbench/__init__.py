"""Numerical workbench for the operator-valued Fourier transform on group
extensions, with exact discrete verification of the norm inequalities that
connect it to the classical Hausdorff-Young theorem.
"""

from .groups import (
    DualSamplingConfig,
    GroupElement,
    character_value,
    make_axb,
    make_group,
    make_heisenberg,
)
from .grids import (
    Grid1D,
    SampledFunction,
    TestFunctionSpec,
    fixture_checksum,
    load_sampled,
    lp_norm_G,
    make_grids,
    sample,
    save_sampled,
)
from .schatten import (
    NumericalError,
    WeightedKernel,
    adjoint_kernel,
    conjugate_exponent,
    cross_norm_qpq,
    russo_gap,
    schatten_norm,
    weighted_operator_matrix,
)
from .verify import (
    babenko_constant,
    check_minkowski,
    check_plancherel,
    check_proof_chain,
    check_russo_fournier,
    check_semi_invariance,
    default_grids,
    proof_chain_quantities,
    slice_ratios,
)

__all__ = [
    "DualSamplingConfig",
    "GroupElement",
    "character_value",
    "make_axb",
    "make_group",
    "make_heisenberg",
    "Grid1D",
    "SampledFunction",
    "TestFunctionSpec",
    "fixture_checksum",
    "load_sampled",
    "lp_norm_G",
    "make_grids",
    "sample",
    "save_sampled",
    "NumericalError",
    "WeightedKernel",
    "adjoint_kernel",
    "conjugate_exponent",
    "cross_norm_qpq",
    "russo_gap",
    "schatten_norm",
    "weighted_operator_matrix",
    "babenko_constant",
    "check_minkowski",
    "check_plancherel",
    "check_proof_chain",
    "check_russo_fournier",
    "check_semi_invariance",
    "default_grids",
    "proof_chain_quantities",
    "slice_ratios",
]

__version__ = "0.1.0"
