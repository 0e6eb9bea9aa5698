"""hlab: exact characteristic-class invariants of compact Kahler manifolds
with holomorphic bundles, pointwise Lefschetz/curvature operator models,
and the associated Euler-characteristic lower bounds.

All computations are exact over the rationals (or Gaussian rationals for
the exterior algebra); the only approximate outputs are certified rational
enclosures of square roots and Hermitian operator norms.
"""

from .bounds import (
    BoundsInput,
    Interval,
    RootReport,
    T4ChainReport,
    bound_C1,
    bound_T2,
    bound_T4,
    bound_T5,
    e_theta_interval,
    forward_difference,
    isolate_real_roots,
    lemma42_search,
    lemma44_search,
    root_report,
    sqrt_enclosure,
    t4_chain,
)
from .exprparse import ExprError, parse_expression, parse_rational
from .genus import (
    BundleData,
    FundamentalClass,
    IntegralityError,
    ManifoldData,
    MissingChernNumber,
    bundle_power,
    ch_hodge_sheaf,
    chern_character,
    chern_inequality_check,
    chi_p,
    chi_y,
    hilbert_polynomial,
    hodge_classes,
    integrate,
    integrate_product,
    k1_formula_check,
    k2_surface_formula_check,
    k_coefficients,
    projective_space,
    todd_class,
)
from .lefschetz import (
    CQ,
    CertificateError,
    CommutatorNorm,
    DiagonalCurvature,
    ExteriorBasis,
    FormVector,
    HermitianCurvature,
    LefschetzPower,
    Operator,
    commutator_norm,
    curvature_operator,
    diagonal_commutator_eigenvalues,
    flatness_test,
    get_basis,
    injectivity_scan,
    lefschetz_power,
    op_L,
    op_Lambda,
    op_star,
    sl2_commutator_check,
    tensor_power_norm,
)
from .qpoly import QPoly
from .ring import (
    GradedElement,
    RingSpec,
    Series,
    SpecMismatch,
    elementary_from_power_sums,
    exp,
    genus_product,
    log,
    power_sums_from_elementary,
    todd_series,
)

__version__ = "0.1.0"
