"""hlab: exact characteristic-class invariants of compact Kahler manifolds
with holomorphic bundles, pointwise Lefschetz/curvature operator models,
and the associated Euler-characteristic lower bounds.

All computations are exact over the rationals (or Gaussian rationals for
the exterior algebra); the only approximate outputs are certified rational
enclosures of square roots and Hermitian operator norms.

The names below are exported lazily (PEP 562): ``import hlab`` loads no
engine module, and ``hlab.X`` or ``from hlab import X`` imports the module
that defines ``X`` on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it exports through the package
_EXPORTS = {
    "bounds": (
        "BoundsInput", "RootReport", "T4ChainReport", "bound_C1", "bound_T2", "bound_T4",
        "bound_T5", "e_theta_interval", "forward_difference", "isolate_real_roots",
        "lemma42_search", "lemma44_search", "root_report", "sqrt_enclosure", "t4_chain",
    ),
    "diagonal": ("CommutatorNorm", "DiagonalCurvature", "commutator_norm", "flatness_test"),
    "errors": ("CertificateError", "ExprError", "IntegralityError", "MissingChernNumber"),
    "exprparse": ("parse_expression",),
    "gaussian": ("CQ",),
    "genus": (
        "BundleData", "FundamentalClass", "ManifoldData", "bundle_power", "ch_hodge_sheaf",
        "chern_character", "chern_inequality_check", "chi_p", "chi_y", "hilbert_polynomial",
        "hodge_classes", "integrate", "integrate_product", "k1_formula_check",
        "k2_surface_formula_check", "k_coefficients", "projective_space", "todd_class",
    ),
    "hermitian": ("HermitianCurvature",),
    "lefschetz": (
        "ExteriorBasis", "FormVector", "Operator", "curvature_operator",
        "diagonal_commutator_eigenvalues", "get_basis", "op_L", "op_Lambda", "op_star",
    ),
    "literals": ("parse_rational",),
    "qpoly": ("QPoly",),
    "record": ("Interval",),
    "ring": (
        "GradedElement", "RingSpec", "Series", "SpecMismatch", "elementary_from_power_sums",
        "exp", "genus_product", "log", "power_sums_from_elementary", "todd_series",
    ),
    "sl2": ("LefschetzPower", "injectivity_scan", "lefschetz_power", "sl2_commutator_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
