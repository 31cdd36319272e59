"""chainscope: set-oriented reachability and chain-recurrence analysis.

Computes reachable and perturbation-chain-reachable sets of discrete-time
dynamical systems on compact domains, certifies or refutes reach-set
robustness with replayable certificates, enumerates candidate minimal sets
with Lyapunov stability classification, and cross-checks the census against
the unique-or-infinite alternative that robustness forces on connected
compact spaces.
"""

__version__ = "0.1.0"

from .errors import (
    ChainscopeError,
    ConfigError,
    ControlError,
    DomainError,
    EmptySetError,
    GridMismatchError,
    InconclusiveError,
    PreconditionError,
    ResolutionError,
    ResourceLimitError,
    SelfMapError,
)
from .geometry import (
    CellSet,
    Domain,
    Grid,
    fatten,
    grid_for,
    hausdorff,
    metric_distance,
)
from .systems import (
    CATALOG,
    System,
    affine2d,
    constant,
    drift_control,
    identity_map,
    image_cell,
    logistic,
    make_system,
    rotation,
    square,
)
from .transition import (
    TransitionGraph,
    backward_reach,
    build_graph,
    forward_reach,
    forward_reach_depths,
    recurrent_cells,
)
from .reachability import (
    ChainReachResult,
    ReachResult,
    RobustnessCertificate,
    chain_reach,
    default_delta_schedule,
    find_uniform_delta,
    orbit_reach,
    replay_certificate,
    robustness_check,
    safety_check,
    semicontinuity_probe,
    verify_initial_fattening,
)
from .minimal import (
    Census,
    DichotomyReport,
    MinimalSetApprox,
    classify_component,
    dichotomy_report,
    lyapunov_stability,
    minimal_sets,
    omega_limit,
    weak_basin,
)

__all__ = [name for name in dir() if not name.startswith("_")]
