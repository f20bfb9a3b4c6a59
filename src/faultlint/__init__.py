"""faultlint: static fault analysis for a Java subset.

Scans .java sources for six catalogued object-oriented fault types,
aggregates per-class error-code lists, clusters classes that share the
same error set, and persists everything in a canonical JSON store.

ERROR_CATALOG, the codes and names of the six fault types, is defined
here, with ALL_RULES, its codes: the detectors, the store and the CLI
read this one copy. Importing the package imports no submodule. Each
other public name (run_all, build_model, parse_source, ...) is served by
the module __getattr__ (PEP 562), which imports the module that defines
the name on its first use, so `faultlint --version` compiles no analysis
code and `from faultlint import run_all` still works.
"""

__version__ = "0.1.0"

ERROR_CATALOG: dict[int, str] = {
    1: "Lvalue required",
    2: "Incorrect inheritance error",
    3: "Spaghetti error",
    4: "Inconsistent Type Usage error",
    5: "Illicit file usage exception",
    6: "Undefined loop exception",
}

ALL_RULES = frozenset(ERROR_CATALOG)

# each public name but __version__ -> the submodule that defines it
_DEFINED_IN = {
    "run_all": "detectors",
    "build_model": "model",
    "parse_source": "parser",
    "FormatError": "store",
    "aggregate": "store",
    "cluster": "store",
    "load_store": "store",
    "render_report": "store",
}

__all__ = ["__version__", *_DEFINED_IN]


def __getattr__(name: str):
    """The public name from the module that defines it, imported now."""
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a non-empty fromlist makes __import__ return the submodule itself
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFINED_IN})
