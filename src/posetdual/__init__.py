"""Event-based and state-based partial-order models of concurrent computations.

The library validates both model kinds, converts between them, decides the
poset properties that characterize valid state models (width-extensibility,
interleaving-consistency and the omega/psi conditions), enumerates consistent
cuts and maximum antichains, detects frontier-spanning global predicates, and
identifies useless checkpoints.
"""

from .errors import (
    BadChainIndex,
    BadMarking,
    ConfigError,
    CycleError,
    EmptyProcess,
    GuardExceeded,
    IndexGap,
    InvalidStateModel,
    ModelError,
    NotConsistent,
    NotTotallyOrdered,
    NotWidthAntichain,
    NotWidthExtensible,
    OracleBoundExceeded,
    PosetDualError,
    SchemaError,
    UnknownElement,
)
from .poset import (
    ChainPartition,
    Comparability,
    Interval,
    Poset,
    build_poset,
    chain_clocks,
    comparable,
    enumerate_antichains,
    enumerate_downsets_bruteforce,
    incomparable_interval,
    minimum_chain_partition,
    width,
)
from .eventmodel import EventModel, build_event_model, is_asc, is_consistent_cut
from .statemodel import (
    PropertyReport,
    StateModel,
    Verdict,
    build_state_model,
    check_interleaving_consistent,
    check_omega1,
    check_omega2,
    check_omega3,
    check_psi,
    check_width_extensible,
    compare_width_antichains,
    extend_to_width_antichain,
)
from .transforms import (
    InvalidityReport,
    SETransformOutcome,
    es_transform,
    roundtrip_es_se,
    roundtrip_se_es,
    se_transform,
)
from .lattice import (
    CutLattice,
    antichain_to_cut,
    cut_to_antichain,
    enumerate_event_cuts,
    enumerate_width_antichains,
    lattice_meet_join,
    materialize_cut_lattice,
)
from .analysis import (
    CheckpointMarking,
    CheckpointReport,
    Predicate,
    detect_width_predicate,
    find_useless_checkpoints,
    induced_checkpoint_model,
    predicate_from_json,
)

__version__ = "0.1.0"
