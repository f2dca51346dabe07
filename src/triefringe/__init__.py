"""Random tries and patricia tries from memoryless sources.

Builds the trees, evaluates additive functionals on them, computes the
asymptotic constants of their fringe statistics (means, variances,
oscillation Fourier coefficients, fringe-tree distribution,
independence-number bounds), and validates every closed form against
brute-force enumeration and seeded Monte Carlo simulation.
"""

from .errors import (
    Aperiodic,
    DegenerateVariance,
    DepthExceeded,
    EmptyTree,
    InvalidPath,
    LimitExceeded,
    MissingDependency,
    NonConvergent,
    PoleAt,
    TrieFringeError,
    UnaryNode,
    WorkerStopped,
)
from .source import SourceDistribution
from .trees import (
    KeySet,
    PatriciaTrie,
    PrefixLaw,
    Trie,
    build_patricia,
    build_trie,
    compress,
    count_patricia_shapes,
    enumerate_patricia_shapes,
    fringe,
    key_from_string,
    random_key_set,
    shape_probability,
    shape_signature,
    shape_string,
)
from .functionals import (
    TollFunction,
    brute_force_independence,
    evaluate_additive,
    evaluate_summed,
    independence_number,
    matching_number,
    phi_alpha,
    phi_geq,
    phi_internal,
    phi_k,
    phi_leaf,
    phi_shape,
    pullback,
)
from .asymptotics import (
    AsymptoticConstant,
    FourierSeries,
    fc_k_star,
    fe_k_star,
    fe_lambda,
    fourier_coefficient,
    fourier_series,
    fringe_limit,
    fringe_mass_sum,
    fv_k_star,
    fv_lambda,
    indnum_alphas,
    indnum_mean_bounds,
    lanczos_gamma,
    link_trie_patricia,
    mellin_numeric,
    psi_eval,
    psi_for_k,
    shape_limit,
    sigma_constants,
)
from .simulation import (
    SimulationConfig,
    SimulationSummary,
    estimate_fX,
    estimate_root_essential,
    fringe_distribution,
    normality_diagnostics,
    oscillation_scan,
    replicate_rng,
    run,
    sample_patricia_roots,
    slln_track,
)

__version__ = "0.1.0"
