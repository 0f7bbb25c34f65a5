"""Exact-arithmetic simulation and analysis of signal machines.

Signals are points moving at constant speeds on the real line; collisions
rewrite them by rule.  Everything here is computed in exact rational or
quadratic-field arithmetic, so collision coordinates, accumulation
certificates and periodicity windows are equalities, not approximations.
"""

from .scalars import (
    FieldContext,
    IncommensurateError,
    Scalar,
    euclid_trace,
    floor_div_mod,
    format_scalar,
    is_commensurate,
    parse_scalar,
    rational_gcd,
)
from .model import (
    AffineMap,
    InitialConfiguration,
    MetaSignal,
    SignalMachine,
    apply_affine_to_machine,
    classify,
    normalize_speeds,
    support_configuration,
    support_machine,
    validate,
)
from .engine import (
    Event,
    MissingRuleError,
    RunLimits,
    RunState,
    SpaceTimeDiagram,
    configuration_at,
    next_collision_delta,
    run,
)
from .analysis import (
    ContractionCertificate,
    ContractionSearch,
    PeriodicityCertificate,
    detect_contraction,
    detect_periodicity,
    diagram_included,
    two_speed_bound_check,
)
from .mesh import (
    MeshSpec,
    StripSpec,
    embed_in_mesh,
    mesh_configuration,
    strip_configuration,
    support_machine_nu,
    verify_mesh_inclusion,
)
from .presets import (
    EncodedValue,
    build_gcd,
    build_gcd_phi,
    build_modulo,
    build_sm2_support,
    build_sm4,
    build_subtraction,
    geometric_result,
    phi,
    read_encoded_value,
    wall_trace,
)
from .textio import event_log_lines, parse_machine_file, serialize_machine

__version__ = "0.1.0"
