"""Multiscale analysis of Zygmund-class functions and measures.

The package measures how far a function (or measure) sampled at dyadic
resolution is from the smoother subspaces characterised by square-type
functionals: it computes second-difference seminorms, level-set densities over
the dyadic tree and cone counts, builds near-optimal approximants by
truncating the jumps of the associated dyadic martingale, and numerically
checks the quantitative inequalities that drive those constructions.
"""

from zygdist.approximation import (
    ContinuousDecomposition,
    DistanceReport,
    DyadicDecomposition,
    continuous_decompose,
    distance_report,
    dyadic_decompose,
    martingale_difference,
    truncate_jumps,
)
from zygdist.dyadic import RealInterval
from zygdist.generators import (
    cascade_measure,
    function_suite,
    hat_function,
    lacunary_function,
    linear_function,
    parabola_function,
    random_jump_martingale,
    random_martingale,
    single_branch_martingale,
    weierstrass_function,
)
from zygdist.functionals import (
    DepthProfile,
    ThresholdEstimate,
    box_square_energy,
    cone_levelset_count,
    default_eps_grid,
    density_profile,
    estimate_threshold,
    levelset_tree_density,
    lp_norm,
    zygmund_seminorm,
)
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    average_growth,
    bmo_norm,
    dyadic_zygmund_seminorm,
    integrate,
    maximal_function,
    quadratic_characteristic,
    star_norm,
)
from zygdist.measures import (
    GridMeasure,
    density_martingale,
    measure_tree_levelset_density,
    measure_truncate,
    measure_zygmund_norm,
)
from zygdist.verification import (
    PredecessorReport,
    RatioReport,
    check_equal_centre,
    check_equal_step,
    check_first_difference,
    check_measure_modulus,
    check_second_difference_modulus,
    lemma_function_family,
    lemma_measure_family,
    run_lemma_suite,
    stability_factor,
    verify_bdg,
    verify_dyadic_distance_bound,
    verify_predecessor_measure,
    verify_strichartz_consistency,
)

__all__ = [
    "ContinuousDecomposition",
    "DepthProfile",
    "DistanceReport",
    "DyadicDecomposition",
    "DyadicMartingale",
    "GridMeasure",
    "PredecessorReport",
    "RatioReport",
    "RealInterval",
    "SampledFunction",
    "ThresholdEstimate",
    "average_growth",
    "bmo_norm",
    "box_square_energy",
    "cascade_measure",
    "check_equal_centre",
    "check_equal_step",
    "check_first_difference",
    "check_measure_modulus",
    "check_second_difference_modulus",
    "cone_levelset_count",
    "continuous_decompose",
    "default_eps_grid",
    "density_martingale",
    "density_profile",
    "distance_report",
    "dyadic_decompose",
    "dyadic_zygmund_seminorm",
    "estimate_threshold",
    "function_suite",
    "hat_function",
    "integrate",
    "lacunary_function",
    "lemma_function_family",
    "lemma_measure_family",
    "levelset_tree_density",
    "linear_function",
    "lp_norm",
    "martingale_difference",
    "maximal_function",
    "measure_tree_levelset_density",
    "measure_truncate",
    "measure_zygmund_norm",
    "parabola_function",
    "quadratic_characteristic",
    "random_jump_martingale",
    "random_martingale",
    "run_lemma_suite",
    "single_branch_martingale",
    "stability_factor",
    "star_norm",
    "truncate_jumps",
    "weierstrass_function",
    "verify_bdg",
    "verify_dyadic_distance_bound",
    "verify_predecessor_measure",
    "verify_strichartz_consistency",
    "zygmund_seminorm",
]

__version__ = "0.1.0"
