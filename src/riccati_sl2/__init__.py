"""Solve and classify time-dependent Riccati equations through the
machinery of SL(2,R)-valued curve transformations.

The package provides a small symbolic expression language for the
coefficients, the Möbius action on the compactified real line, a
chart-switching direct integrator (the oracle), the group/algebra layer
on SL(2,R), the affine action of curve groups on equations, classical
quadrature solvers, and a catalogue of automatic integrability-condition
detectors, all cross-validated against the oracle.
"""

from .expr import (Expr, Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call,
                   Integral, T, ZERO, ONE, parse, evaluate, evaluate_grid,
                   differentiate, substitute, session, integral_from, as_expr, sqrt,
                   exp, log, sin, cos, tan, tanh, arctan, integral,
                   ParseError, EvalDomainError, QuadratureError)
from .projline import (ExtReal, INF, ext, points, Mat2, M0, M1, M2,
                       mobius_apply, mobius_apply_array, cross_ratio,
                       SingularMatrixError, CoincidentPointsError)
from .riccati import (RiccatiEquation, Trajectory, rhs, time_grid,
                      integrate_direct)
from .sl2 import (AlgebraCurve, GroupTrajectory, OneDimensionalTarget,
                  AffineSolvableTarget,
                  algebra_curve_from_riccati, integrate_group_equation,
                  reconstruct_solution, solve_one_dimensional_target,
                  expm_traceless, algebra_matrix)
from .transform import (CurveSL2, theta_apply, transform_coefficients,
                        gauge_transform_algebra, compose, inverse,
                        normalize_negative_determinant, NormalizationError)
from .solvers import (SolutionForm, sample_forms, ResidualError,
                      PreconditionError, solve_linear, solve_bernoulli,
                      reduce_with_known_solution, solve_with_two_solutions,
                      superpose_three, solve_autonomous, solve_separable)
from .criteria import (CriterionReport, GridDomainError, constancy_fit,
                       check_rao_K, check_rao_W0, check_ru68,
                       check_allen_stein, check_ko06, check_ra61,
                       check_rdm05, check_zh99_basic, check_zh99_E,
                       check_zh99_table, classify, solve_via_report,
                       DETECTOR_ORDER)

__version__ = "0.1.0"
