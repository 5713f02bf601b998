"""Analysis layer: verification harness, growth fits, table/figure regeneration."""

from .checkers import (
    BfsCanonical,
    BuildEqualsInput,
    ConnectivityCorrect,
    EobBfsCorrect,
    MisValid,
    SpanningForestCanonical,
    SquareCorrect,
    TriangleCorrect,
    TwoCliquesCorrect,
)
from .budgets import klogn_budget, linear_budget, logn_budget, polylog_budget
from .latex import escape_latex, lemma1_to_latex, table2_to_latex
from .figures import ascii_adjacency, render_figure1, render_figure2
from .sensitivity import SensitivityReport, analyze
from .message_stats import MessageStats, cost_by_core, cost_by_degree, message_stats
from .serialize import dumps_run, graph_from_dict, graph_to_dict, report_to_dict, run_to_dict
from .scaling import FitResult, fit_against, fit_klog, fit_log, is_sublinear
from .trace import activation_timeline, narrate
from .table2 import EmpiricalCell, Table2Result, generate_table2, render_table2
from .verify import Checker, Failure, VerificationReport, verify_protocol


__all__ = [
    "BfsCanonical",
    "BuildEqualsInput",
    "ConnectivityCorrect",
    "EobBfsCorrect",
    "MisValid",
    "SpanningForestCanonical",
    "SquareCorrect",
    "TriangleCorrect",
    "TwoCliquesCorrect",
    "klogn_budget",
    "linear_budget",
    "logn_budget",
    "polylog_budget",
    "escape_latex",
    "lemma1_to_latex",
    "table2_to_latex",
    "ascii_adjacency",
    "render_figure1",
    "render_figure2",
    "activation_timeline",
    "narrate",
    "dumps_run",
    "graph_from_dict",
    "graph_to_dict",
    "report_to_dict",
    "run_to_dict",
    "MessageStats",
    "cost_by_core",
    "cost_by_degree",
    "message_stats",
    "SensitivityReport",
    "analyze",
    "FitResult",
    "fit_against",
    "fit_klog",
    "fit_log",
    "is_sublinear",
    "EmpiricalCell",
    "Table2Result",
    "generate_table2",
    "render_table2",
    "Checker",
    "Failure",
    "VerificationReport",
    "verify_protocol",
]
