"""Discrete regularization of first-kind Fredholm integral equations.

The package discretizes an ill-posed operator equation through finite-rank
projection schemes, solves the resulting normal system with minimum-norm or
shifted (Tikhonov) solves, and ships an executable verification suite for
the error bounds the construction satisfies.
"""

from .analysis import (
    BoundReport,
    ConvergenceRow,
    l2_error,
    verify_special,
    verify_th1,
    verify_th3,
    verify_th5,
)
from .discretize import (
    DiscreteSystem,
    SchemeKind,
    apply_adjoint,
    build_system,
    estimate_epsilon,
    project_data,
)
from .estimators import MinimumNormSolver, NotFittedError, TikhonovSolver
from .linalg import NumericalError, WeightedSpace, spectral_norm
from .problems import (
    Domain,
    Kernel,
    SeparableExpansion,
    TestProblem,
    get_problem,
    green_problem,
    make_separable_problem,
    problem_catalog,
    reference_rule,
)
from .quadrature import QuadratureRule, composite_gauss, composite_trapezoid, gauss_legendre
from .regularize import (
    InconsistentDataError,
    NoiseSpec,
    Reconstruction,
    add_noise,
    choose_alpha,
    min_norm_solution,
    tikhonov_continuous_reference,
    tikhonov_discrete,
)

__version__ = "0.1.0"
