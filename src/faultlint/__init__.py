"""faultlint: static fault analysis for a Java subset.

Scans .java sources for six catalogued object-oriented fault types,
aggregates per-class error-code lists, clusters classes that share the
same error set, and persists everything in a canonical JSON store.
"""

__version__ = "0.1.0"

from faultlint.detectors import run_all
from faultlint.model import build_model
from faultlint.parser import parse_source
from faultlint.store import (
    FormatError,
    aggregate,
    cluster,
    load_store,
    render_report,
)

__all__ = [
    "__version__",
    "run_all",
    "build_model",
    "parse_source",
    "FormatError",
    "aggregate",
    "cluster",
    "load_store",
    "render_report",
]
