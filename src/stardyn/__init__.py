"""Dynamics of continuous self-maps of star graphs driven by finite
orbit patterns of the branch point.

The package is organized in layers:

``patterns``
    Combinatorial orbit patterns: parsing, validation, arcs between
    marked points, basic intervals and the arcs they cover, enumeration
    up to branch relabeling.
``orders``
    Period-forcing orders for interval and star maps.
``plmap``
    The canonical piecewise-linear realization of a pattern with exact
    rational arithmetic, and the periodic-point oracle built on it.
``certify``
    Covering digraphs of basic intervals, periodicity and chaos
    certificates, and the self-checking periodicity report.
``survey``
    Classification campaigns over whole families of patterns,
    reference-fact verification, and tabular output.
``cli``
    The ``stardyn`` command-line interface.
"""

from .certify import (
    BasicInterval,
    Cascade,
    CenterOrbit,
    CenterTheoremCase,
    Certificate,
    CoverDigraph,
    ForcedPeriod,
    Genscramble,
    InconsistencyError,
    NPlus2Case,
    OracleAbsence,
    OracleWitness,
    PeriodicityReport,
    PeriodStatus,
    basic_intervals,
    certificate_to_json,
    check_center_theorem,
    check_nplus2_theorem,
    closed_walk_lengths,
    cover_digraph,
    find_cascade,
    find_genscramble,
    periodicity_report,
    render_dot,
    report_to_json,
    self_loop_only_lengths,
    verify_certificate,
    verify_genscramble,
)
from .orders import baldwin_le, forced_periods, nod_le, sharkovskii_le
from .patterns import (
    Arc,
    EnumerationCapExceeded,
    FiniteOrbitSpec,
    MarkedPoint,
    PatternError,
    PatternSyntaxError,
    StarPattern,
    arc,
    canonicalize,
    enumerate_patterns,
    iter_patterns,
    orbit_type,
    parse_pattern,
    pattern_from_json_dict,
    validate,
)
from .plmap import (
    CylinderCapExceeded,
    DomainError,
    LoopError,
    OracleError,
    PLMap,
    PeriodicWitness,
    Piece,
    RationalPoint,
    ScanResult,
    UncountablePeriodicSet,
    first_witness,
    loop_point,
    make_point,
    oracle_scan,
    periodic_points,
    realize,
    scramble_probe,
)
from .survey import (
    ClassRecord,
    CheckResult,
    ReferenceReport,
    SurveyCounts,
    SurveyResult,
    classify_all,
    emit_table,
    filter_result,
    survey_to_json,
    tail_tag,
    verify_paper,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # patterns
    "Arc",
    "EnumerationCapExceeded",
    "FiniteOrbitSpec",
    "MarkedPoint",
    "PatternError",
    "PatternSyntaxError",
    "StarPattern",
    "arc",
    "canonicalize",
    "enumerate_patterns",
    "iter_patterns",
    "orbit_type",
    "parse_pattern",
    "pattern_from_json_dict",
    "validate",
    # orders
    "baldwin_le",
    "forced_periods",
    "nod_le",
    "sharkovskii_le",
    # plmap
    "CylinderCapExceeded",
    "DomainError",
    "LoopError",
    "OracleError",
    "PLMap",
    "PeriodicWitness",
    "Piece",
    "RationalPoint",
    "ScanResult",
    "UncountablePeriodicSet",
    "first_witness",
    "loop_point",
    "make_point",
    "oracle_scan",
    "periodic_points",
    "realize",
    "scramble_probe",
    # certify
    "BasicInterval",
    "Cascade",
    "CenterOrbit",
    "CenterTheoremCase",
    "Certificate",
    "CoverDigraph",
    "ForcedPeriod",
    "Genscramble",
    "InconsistencyError",
    "NPlus2Case",
    "OracleAbsence",
    "OracleWitness",
    "PeriodStatus",
    "PeriodicityReport",
    "basic_intervals",
    "certificate_to_json",
    "check_center_theorem",
    "check_nplus2_theorem",
    "closed_walk_lengths",
    "cover_digraph",
    "find_cascade",
    "find_genscramble",
    "periodicity_report",
    "render_dot",
    "report_to_json",
    "self_loop_only_lengths",
    "verify_certificate",
    "verify_genscramble",
    # survey
    "CheckResult",
    "ClassRecord",
    "ReferenceReport",
    "SurveyCounts",
    "SurveyResult",
    "classify_all",
    "emit_table",
    "filter_result",
    "survey_to_json",
    "tail_tag",
    "verify_paper",
]
