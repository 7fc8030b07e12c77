"""Asymptotically flat initial data for the S1-symmetric vacuum constraints.

Solves the coupled momentum + Lichnerowicz system on the plane by a Picard
iteration over log-extracted Poisson solves, with the singular mean-curvature
profile tuned so that the slowly decaying squares cancel identically.
"""

from .errors import (
    DegenerateCone,
    DeltaOutOfRange,
    DivergenceDetected,
    EpsilonTooLarge,
    GridMismatch,
    InvalidResolution,
    NearSingularSelection,
    NoConvergence,
    NonDecayingRHS,
    ParseError,
    SingularSystem,
    SolverError,
    UnresolvedSpec,
    UnsupportedOrder,
    ValidationError,
)
from .fields import (
    GaussianBump,
    Grid,
    ScalarField,
    SeedData,
    TracelessSymTensorField,
    build_grid,
    cartesian_gradient,
    evaluate_field,
    integrate,
    make_seed,
    multiply,
    read_field_csv,
    sample_analytic,
    weighted_sobolev_norm,
    write_field_csv,
)
from .elliptic import PoissonSolution, greens_convolution_oracle, laplacian, poisson_solve
from .momentum import (
    SingularTensorParams,
    correction_h2,
    correction_h3,
    div_constraint_solve,
    momentum_rhs_f,
    singular_tensors,
    solve_rho_eta,
)
from .lichnerowicz import hamiltonian_rhs, solve_lambda
from .picard import (
    IterState,
    ResidualReport,
    SolutionBundle,
    SolverOptions,
    picard_step,
    residuals,
    solve_constraints,
)
from .geometry import PhysicalData, asymptotic_charges, cone_angle, reconstruct_physical

__version__ = "0.1.0"
