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

Each public name loads on first use: ``import stardyn`` imports no
submodule, and ``stardyn.classify_all`` (or ``stardyn.survey``) imports
its module when it is first read, so a caller pays only for the layers
it uses.  ``_EXPORTS`` lists each module's public names once, and
``__all__`` is derived from it.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "patterns": (
        "Arc",
        "BasicInterval",
        "EnumerationCapExceeded",
        "FiniteOrbitSpec",
        "MarkedPoint",
        "PatternError",
        "PatternSyntaxError",
        "StarPattern",
        "arc",
        "basic_intervals",
        "canonicalize",
        "enumerate_patterns",
        "iter_patterns",
        "orbit_type",
        "parse_pattern",
        "pattern_from_json_dict",
        "validate",
    ),
    "orders": ("baldwin_le", "forced_periods", "nod_le", "sharkovskii_le"),
    "plmap": (
        "CylinderCapExceeded",
        "DomainError",
        "InconsistencyError",
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
    ),
    "certify": (
        "Cascade",
        "CenterOrbit",
        "CenterTheoremCase",
        "Certificate",
        "CoverDigraph",
        "ForcedPeriod",
        "Genscramble",
        "NPlus2Case",
        "OracleAbsence",
        "OracleWitness",
        "PeriodStatus",
        "PeriodicityReport",
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
    ),
    "survey": (
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
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import the module that defines ``name`` (or the submodule ``name``)."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}", name=name)
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
