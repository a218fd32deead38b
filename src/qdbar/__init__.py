"""Quantum disk/annulus coordinates, the balanced d-bar operator, its
parametrix, and classical-limit verification experiments."""

__version__ = "0.1.0"

from .elements import (
    BandMatrix, IndexWindow, LambdaElement, PowerSum, Transform,
    classical_norm, coordinate_element, lambda_norm_sq, make_element,
    quantum_norm, realize_quantum, truncation_window,
)
from .errors import (
    CapabilityError, ConfigInvalidError, ConfigSyntaxError,
    DivergentIntegralError, InsufficientDataError, ParameterError, QdbarError,
    QuadratureError, WindowResourceError,
)
from .limits import (
    ConvergenceSeries, RateFit, continuity_scan, geometric_grid,
    inverse_residual, norm_convergence, parametrix_convergence, rate_fit,
    uniform_bound_scan,
)
from .operators import (
    KernelOperatorSpec, QtKernelMode, apply_D0, apply_Dt, apply_Qt,
    operator_norm_estimate, schur_analytic_cap, schur_young_bound,
    tilde_element,
)
from .quadrature import integrate
from .weights import (
    BilateralArctan, BilateralRational, ConditionReport, Domain, FamilyKind,
    UnilateralExample, WeightFamily, condition_report, make_family,
    s_ratio_margin,
)
