"""Hofstadter V-sequence toolkit.

Brute-force oracles for V = Q_{1,4} and its frequency sequence F, empirical
derivation of the doubling rules, synthesis of the base-2 automaton that
computes F, certification of that automaton against the oracle, and
O(log n) evaluation through it.

Only the automaton's names are imported with the package: a query needs
nothing else.  Every other public name, and every submodule, is imported
on first access (PEP 562), so a process compiles only the layers it uses.
"""

from .automaton import (SINGLE, WINDOW, BadDigit, BadNumeral, Dfao,
                        KindMismatch, NotWindowKind, ParseError, base_digits)

__version__ = "0.1.0"

# submodule -> the public names it lends the package
_LAZY = {
    "published": ("PAPER_TYPO", "UNRESOLVED", "DiffReport", "Finding",
                  "PrintedTable", "diff_report", "table1", "table2"),
    "rules": ("RuleConflict", "RuleVerification", "WindowRuleTable",
              "derive_rules", "format_rules", "verify_rules"),
    "sequences": ("MonotonicityViolation", "SequenceTable", "count_windows",
                  "first_difference", "gen_f", "gen_v", "write_table"),
    "synthesis": ("CertificateReport", "CertificationFailure",
                  "NonpositiveDivisor", "OracleTooShort", "ProbeReport",
                  "TransitionCertificate", "Validation",
                  "cert_plan", "certify_transitions", "cross_validate",
                  "discover", "euclid_div", "kernel_probe", "shift_bounds",
                  "synthesize_msb", "synthesize_validated"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    import importlib

    if name in _LAZY:  # importing a submodule binds it in the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    hidden = {"__getattr__", "__dir__", "_LAZY", "_OWNER"}
    return sorted({*globals(), *_LAZY, *_OWNER} - hidden)
