"""Pseudo-spectral means of elliptic Fourier multipliers on the torus,
with Liouville/Besov/Nikolskii norm machinery and convergence
experiments."""

from .grid import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    forward_transform,
    inverse_transform,
    lp_norm,
    pair,
    spectral_l2_norm,
)
from .symbols import (
    HomogeneousSymbol,
    HypothesisReport,
    MeanFunction,
    TheoremParameters,
    assemble_hypothesis_report,
    check_derivative_decay,
    check_integrability,
    check_theorem2,
    make_gaussian_mean,
    make_riesz_mean,
    make_smooth_cutoff_mean,
    power_symbol,
    quartic_symbol,
)
from .multipliers import (
    MultiplierPlan,
    apply_multiplier,
    spectral_derivative,
    spectral_mean,
)
from .spaces import (
    BesovParams,
    LittlewoodPaleyPartition,
    NormSpec,
    besov_norm_lp,
    besov_norm_modulus,
    build_partition,
    classical_besov_norm,
    difference,
    difference_norms,
    evaluate_norm,
    liouville_norm,
    localized_norm,
    modulus_of_continuity,
    nikolskii_norm,
    slobodetskii_norm,
    smooth_window,
    sobolev_norm,
)
from .distributions import (
    CompactDistribution,
    PointAtom,
    classify_membership,
    negative_liouville_norm,
    pair_distribution,
    spectrum_of_distribution,
    verify_duality,
)
from .signals import make_signal
from .harness import (
    ExperimentConfig,
    distribution_convergence,
    run_conditions,
    run_convergence_distribution,
    run_convergence_function,
    run_equivalence,
)

__version__ = "0.1.0"
