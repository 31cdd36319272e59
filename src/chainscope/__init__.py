"""chainscope: set-oriented reachability and chain-recurrence analysis.

Computes reachable and perturbation-chain-reachable sets of discrete-time
dynamical systems on compact domains, certifies or refutes reach-set
robustness with replayable certificates, enumerates candidate minimal sets
with Lyapunov stability classification, and cross-checks the census against
the unique-or-infinite alternative that robustness forces on connected
compact spaces.
"""

__version__ = "0.1.0"

import os as _os

# numpy and scipy each bundle an OpenBLAS, which starts a pool of threads
# when it loads and leaves them busy-waiting for a while; on a small host
# they take cores from the single thread that does all of chainscope's work.
# chainscope's only BLAS calls are np.linalg.norm of a 2x2 matrix and of a
# 2-vector, which use no threads.  OpenBLAS reads this only when it loads, so
# it is set before this package imports numpy or scipy.  A caller's own value
# wins, and a caller that imported numpy first keeps numpy's pool.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
