"""quantilab: L^r-optimal 1-D quantizer grids, the dilatation transform
and its asymptotic rate constants."""

from .analysis import (
    EmpiricalCheckReport,
    IdentityCheckResult,
    RegressionRow,
    empirical_discrepancy,
    empirical_identity_check,
    gamma_counterexample,
    ols_fit,
    table_experiment,
)
from .dilatation import (
    AdmissibilityError,
    RateConstants,
    RateQuery,
    admissible_theta_range,
    condition_integral,
    q_inf,
    q_sup_sub,
    rate_constants,
    theta_star,
)
from .distributions import (
    DistributionSpec,
    Family,
    QuadratureError,
    QuadratureOpts,
    UnsupportedDimensionError,
    c_fr,
    cdf,
    cell_gradient,
    cell_moment,
    cube_coefficient,
    empirical_density,
    empirical_measure_law,
    pdf,
    quantile,
    zador_q,
)
from .quantizer import (
    DilationParams,
    Grid,
    count_in_interval,
    dilate,
    distortion,
    nearest,
    voronoi_bounds,
)
from .solver import (
    AkSequence,
    GridCache,
    SolveResult,
    SolverError,
    SolverOpts,
    cell_argmin,
    exp_ak_sequence,
    exp_optimal_grid,
    optimal_grid,
    solve,
)

__version__ = "0.1.0"
