"""loccforge: synthesize finite local protocols for separable quantum
measurements, or prove that none exists."""

from .config import RunConfig, Tolerances, load_config
from .cones import member
from .errors import (
    ConfigError,
    DimMismatchError,
    FactorizationFailureError,
    InfeasibleError,
    InvalidMeasurementError,
    InvalidOperatorError,
    LiftError,
    LoccForgeError,
    NoKrausDataError,
    ParseError,
    SimplexGuardError,
    SubsetTooSmallError,
    TreeStructureError,
    UnboundVariableError,
    ZeroOperatorError,
)
from .hermitian import proportional, psd_sqrt, tensor, vectorize
from .io import (
    ProtocolDocument,
    export_dot,
    measurement_digest,
    parse_document,
    parse_measurement,
    parse_protocol,
    serialize_measurement,
    serialize_protocol,
)
from .lifting import LiftedProtocol, UnitaryTail, UnitaryTailEntry, lift
from .measurement import (
    CompletenessCertificate,
    Diagnostic,
    KrausProduct,
    SeparableMeasurement,
    completeness_certificate,
    from_kraus,
    measurement_from_parts,
    validate,
)
from .nogo import (
    NoGoWitness,
    PartitionScanResult,
    find_partition_witness,
    find_singular_pair_witness,
)
from .synthesis import (
    SynthesisStats,
    SynthesisVerdict,
    admit,
    build_classes,
    feasibility,
    orderings,
    synthesize,
)
from .tree import (
    ExtractionResult,
    Node,
    ProtocolTree,
    Term,
    align_weights,
    canonical_key,
    compact_same_party,
    coverage,
    eliminate_coin_flips,
    extract_measurement,
    leaf_tree,
    leaves,
    merge_and_extend,
    prune_unitary_rounds,
    root_for,
    validate_assignment,
    walk_nodes,
)

__version__ = "0.1.0"
