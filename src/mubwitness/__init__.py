"""Three-qubit GHZ-diagonal states: PPT polytope, envelope entanglement
witnesses, and bound-entanglement classification.

`from mubwitness import classify` gives the classify function, as the README
sketch and the tests expect, so it shadows the submodule of that name; reach
the module with importlib.import_module("mubwitness.classify").
"""

from .pauli import (
    H_MATRIX,
    R_OPERATORS,
    SIGNS,
    as_probs,
    as_rvec,
    density_from_p,
    density_from_r,
    ghz_basis,
    p_from_r,
    pauli_matrix,
    r_from_p,
)
from .ppt import (
    PptReport,
    SpecialFamilyParams,
    is_ppt,
    min_eigenvalue,
    partial_transpose,
    ppt_inequalities,
    project_region,
    special_family,
)
from .witness import (
    NonlinearFamilyId,
    ProductState,
    WitnessSpec,
    all_family_ids,
    expectation,
    min_over_products,
    nonlinear_value,
    optimal_psi,
    optimality_obstruction,
    product_expectation,
    validate_ew,
    witness_matrix,
)
from .classify import (
    CategoryHit,
    SeparableCertificate,
    Verdict,
    cat1_special,
    category_of,
    certify_separable,
    classify,
    detect_bound,
)
from .mub import (
    LocalUnitary,
    MubRow,
    common_eigenbasis,
    local_unitary,
    mub_table,
    transform_row,
    unbiasedness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
