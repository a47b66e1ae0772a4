"""Exact-arithmetic slope invariants of tunnel-number-one knot and link tunnels.

The package namespace is lazy: a public name's module is imported on the
first use of that name, and the name is then bound here, so a command loads
only the modules it runs.
"""

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "contfrac": ("EvenCF", "cf_eval", "even_cf_expand", "sum_a"),
    "convert": ("conversion_word", "convert_range", "st_convert"),
    "oracle": ("OracleReport", "check_uniqueness", "enumerate_even_cfs", "random_word_dictionary_check", "selfcheck"),
    "rationals": (
        "INFINITY",
        "IndeterminateFormError",
        "NotFiniteError",
        "ProjectiveRational",
        "ResidueSlope",
        "parse_rational",
        "render",
        "residue_of",
    ),
    "sl2": ("ParityError", "SL2Matrix", "change_of_basis", "word_product"),
    "tunnels": (
        "ParseError",
        "Target",
        "TunnelClass",
        "TunnelKind",
        "TunnelParams",
        "ValidationError",
        "is_amphichiral",
        "linking_number",
        "mirror",
        "parse",
        "serialize",
        "to_export",
        "validate",
    ),
    "twobridge": (
        "CablingContradictionError",
        "CablingStep",
        "LinkInvariantError",
        "TrivialKnotError",
        "TwoBridgeForm",
        "cabling_steps",
        "make_form",
        "normalize_input",
        "two_bridge_slopes",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
