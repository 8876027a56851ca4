"""Hofstadter V-sequence toolkit.

Brute-force oracles for V = Q_{1,4} and its frequency sequence F, empirical
derivation of the doubling rules, synthesis of the base-2 automaton that
computes F, certification of that automaton against the oracle, and
O(log n) evaluation through it.
"""

from .automaton import (SINGLE, WINDOW, BadDigit, BadNumeral, Dfao,
                        KindMismatch, NotWindowKind, ParseError, base_digits)
from .published import (PAPER_TYPO, UNRESOLVED, DiffReport, Finding,
                        PrintedTable, diff_report, table1, table2)
from .rules import (RuleConflict, RuleVerification, WindowRuleTable,
                    derive_rules, format_rules, verify_rules)
from .sequences import (DeadSequence, MonotonicityViolation, SequenceTable,
                        count_windows, first_difference, gen_f, gen_qrs, gen_v,
                        read_table, write_table)
from .synthesis import (CertificateReport, CertificationFailure,
                        InsufficientHorizon, KernelNode, NonpositiveDivisor,
                        OracleTooShort, ProbeReport, TransitionCertificate,
                        Validation, cert_plan, certify_transitions,
                        cross_validate, discover, euclid_div, kernel_probe,
                        shift_bounds, synthesize_msb, synthesize_validated)

__version__ = "0.1.0"
