"""Quadratic representations of ternary quartics via rank-3 Gram matrices.

A nonzero real ternary quartic f has an affine 6-parameter family of Gram
matrices; its rank-3 members are exactly the signed quadratic
representations f = s1*p^2 + s2*q^2 + s3*r^2.  For a smooth quartic there
are 63 classes of these (15 real, and 8 positive semidefinite when f is
non-negative).  This package finds them all, classifies them, and emits
verified certificates, both as a library and through the `quartic-sos`
command line tool.
"""

from .forms import (
    FloatRangeError,
    FormError,
    FormSyntaxError,
    NotHomogeneousError,
    QuadraticForm,
    TernaryQuartic,
    ZeroFormError,
    apply_linear_change,
    eval_quartic,
    gradient,
    parse_quartic,
    quad_product,
    quad_square,
)
from .gram import (
    KERNEL_BASIS,
    GramFamily,
    NotInFamilyError,
    SymMatrix6,
    build_family,
    complete_squares,
    gram_to_quartic,
    lambda_of_gram,
    representation_to_gram,
)
from .curves import (
    CurveStatus,
    PositivityStatus,
    basepoint_check,
    nonnegativity_test,
    numeric_singularity_oracle,
    smoothness_test,
)
from .solver import (
    GramPoint,
    SolutionSet,
    SolveConfig,
    certify_count,
    residual_system,
    solve_all,
)
from .classify import (
    HypothesisFailed,
    RankMismatchError,
    Representation,
    Theorem1Report,
    VerifyVerdict,
    classify_point,
    classify_points,
    factor,
    theorem1_check,
    verify_representation,
)

__all__ = [
    "FloatRangeError",
    "FormError",
    "FormSyntaxError",
    "NotHomogeneousError",
    "ZeroFormError",
    "TernaryQuartic",
    "QuadraticForm",
    "parse_quartic",
    "quad_product",
    "quad_square",
    "eval_quartic",
    "gradient",
    "apply_linear_change",
    "SymMatrix6",
    "GramFamily",
    "NotInFamilyError",
    "KERNEL_BASIS",
    "build_family",
    "complete_squares",
    "gram_to_quartic",
    "representation_to_gram",
    "lambda_of_gram",
    "CurveStatus",
    "PositivityStatus",
    "smoothness_test",
    "numeric_singularity_oracle",
    "nonnegativity_test",
    "basepoint_check",
    "SolveConfig",
    "SolutionSet",
    "GramPoint",
    "residual_system",
    "solve_all",
    "certify_count",
    "Representation",
    "VerifyVerdict",
    "Theorem1Report",
    "HypothesisFailed",
    "RankMismatchError",
    "factor",
    "verify_representation",
    "classify_point",
    "classify_points",
    "theorem1_check",
    "random_corpus_quartic",
    "main",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # `cli` is imported on first use, not here: `python -m quartic_sos.cli`
    # would otherwise find it imported before it runs as __main__
    if name in ("main", "random_corpus_quartic"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
