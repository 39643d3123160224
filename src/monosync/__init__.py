"""Simulation and verification engine for i.i.d. random iterations of
order-monotone maps on subsets of R^k.

The package verifies the order-splitting condition for a map family,
samples the unique stationary law by pullback iteration, measures the
exponential synchronization of random orbits, tracks Wasserstein-1
convergence to stationarity, and runs a Poisson-equation / functional-CLT
pipeline on partial sums of observables along the chain.
"""

from .clt import (
    CltReport,
    Observable,
    PathEnsemble,
    PoissonSolution,
    fclt_tests,
    make_observable,
    partial_sum_paths,
    poisson_solve,
    run_clt_analysis,
    sigma_estimate,
    transfer_apply,
)
from .engine import (
    OrbitTrace,
    forward_orbit,
    image_box,
    noise_at,
    reverse_orbit,
    sample_block,
)
from .errors import (
    DegenerateProbeError,
    DegenerateSeriesError,
    DimensionMismatchError,
    MonosyncError,
    NoDecayError,
    NonPositiveSigmaError,
    NotConvergedError,
    UnknownFamilyError,
    UsageError,
)
from .families import (
    BoxNoise,
    FiniteNoise,
    MapFamily,
    Monotonicity,
    MonotonicityVerdict,
    builtin_family_ids,
    classify_monotonicity,
    family_from_config,
    family_to_config,
    make_family,
    probe_cloud,
)
from .order import (
    Box,
    BoxCmp,
    JOrder,
    PointCmp,
    cmp_boxes,
    cmp_points,
    projections_disjoint,
)
from .splitting import (
    SigmaDecaySeries,
    SplittingReport,
    exact_splitting_scan,
    find_splitting_witness,
    sigma_decay,
)
from .sync import (
    BoundednessReport,
    DiamSeries,
    GapSeries,
    RateFit,
    assumption2_check,
    diameter_series,
    fit_rate,
    forward_attractor_gap,
)
from .transport import (
    EmpiricalMeasure,
    TransportReport,
    W1DecayCurve,
    markov_step,
    pullback_sample,
    push_forward,
    w1_decay_curve,
    wasserstein1,
)

__version__ = "0.1.0"
