"""Toolkit for randomized distributed control of flexible load fleets.

Builds zeta-parameterized families of Markov transition kernels for loads
(individual-optimality, smoothed, and exponential designs), linearizes the
resulting mean-field dynamics, checks passivity of the input-output response,
and simulates mean-field and finite-fleet tracking loops.

Importing the package copies ``DDISPATCH_THREADS`` into the unset BLAS
thread variables before any submodule imports numpy; no other code of the
package touches the environment.
"""

import os

__version__ = "0.1.0"


def _apply_thread_cap():
    cap = os.environ.get("DDISPATCH_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


# numpy reads the BLAS thread variables when it loads
_apply_thread_cap()

from .errors import (  # noqa: E402
    AdjointProductReducible,
    BadCutoffs,
    DispatchError,
    InfeasibleDutyCycle,
    IntegrationDiverged,
    LatticeMismatch,
    NearSingular,
    NonFinite,
    NotIrreducible,
    OutOfGrid,
    SingularSystem,
    SupportViolation,
    UnstablePole,
    ValidationError,
    ZeroMass,
)
from .markov import (  # noqa: E402
    Pmf,
    StateFunction,
    StochasticMatrix,
    StructureReport,
    adjoint,
    adjoint_product,
    check_irreducible_aperiodic,
    compose,
    fundamental_matrix,
    geometric_mix,
    invariant_pmf,
    poisson_solve,
    relative_entropy_rate,
)
from .design import (  # noqa: E402
    DesignFamily,
    FamilyStructure,
    LoadStateSpace,
    build_exponential_family,
    family_optimality_residual,
    geometric_compose,
    ipd_map,
    lift_control,
    load_family,
    optimality_residual,
    reward_value,
    sampling_rate_profile,
    save_family,
    solve_design_ode,
    spd_map,
    tilt,
)
from .linearize import (  # noqa: E402
    FrequencyResponse,
    LinearModel,
    b_adjoint_form,
    bode_export,
    covariance_sequence,
    dc_gain,
    family_kernel_derivative,
    kernel_derivative,
    linearize,
    positive_real_check,
    psd,
    transfer_eval,
)
from .loads import (  # noqa: E402
    LoadModel,
    NatureKernel,
    PoolModelSpec,
    TclModelSpec,
    TclTrajectory,
    build_pool_model,
    build_tcl_model,
    estimate_q0,
    load_model,
    save_model,
    synthesis_inputs,
    tcl_trajectory,
    trajectory_to_csv,
)
from .sim import (  # noqa: E402
    FleetState,
    SignalSet,
    TrackingConfig,
    fleet_init,
    fleet_rollout,
    fleet_step,
    frequency_decompose,
    meanfield_rollout,
    meanfield_step,
    track,
    tracking_metrics,
)
