"""Sequence-transformation toolkit for convergence acceleration.

Epsilon/rho/theta-style lozenge recursions, Levin-type transformations with
explicit remainder estimates, a generalized recursion engine closing over all
of them, test-series generators with reference limits, and a benchmark CLI
that checks error tables against transcribed fixtures.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_GUARD,
    BadArgument,
    BadEstimates,
    BadParameter,
    BadRule,
    EmptyInput,
    EntryStatus,
    InsufficientData,
    MissingPoints,
    SeqAccelError,
    SequenceSample,
    StaircaseEntry,
    TableEntry,
    TransformSpec,
    TransformTable,
    UnstableValue,
    error_against,
    guard_threshold,
    partial_sums,
    staircase_entry,
)
from .levin import (
    RemainderEstimates,
    levin_general,
    levin_u,
    levin_v,
)
from .problems import (
    NoReference,
    ProblemSpec,
    ReferenceValue,
    available_problems,
    e1_quadrature,
    generate,
    inv_z_series_terms,
    parse_problem,
    reference,
)
from .transforms import (
    FRule,
    aitken_delta2,
    apply,
    available_transforms,
    epsilon,
    epsilon_low_memory,
    generic_f,
    iterated_aitken,
    iterated_theta,
    parse_transform,
    rho,
    rho_osada,
    seps,
    seps_f1,
    seps_rule,
    theta,
)

__all__ = [
    "__version__",
    # core
    "DEFAULT_GUARD", "guard_threshold", "SeqAccelError", "EmptyInput",
    "InsufficientData", "MissingPoints", "BadParameter", "BadRule",
    "BadEstimates", "BadArgument", "UnstableValue", "EntryStatus",
    "TableEntry", "SequenceSample", "TransformSpec", "TransformTable",
    "StaircaseEntry", "partial_sums", "staircase_entry", "error_against",
    # transforms
    "FRule", "aitken_delta2", "iterated_aitken", "epsilon",
    "epsilon_low_memory", "rho", "rho_osada", "theta", "iterated_theta",
    "generic_f", "seps_f1", "seps", "seps_rule", "apply", "parse_transform",
    "available_transforms",
    # levin
    "RemainderEstimates", "levin_general", "levin_u", "levin_v",
    # problems
    "NoReference", "ProblemSpec", "ReferenceValue", "generate", "reference",
    "e1_quadrature", "inv_z_series_terms", "parse_problem", "available_problems",
]
