"""Analysis layer: verification harness, growth fits, table/figure regeneration.

Public names resolve on first use (PEP 562): importing one submodule,
such as :mod:`repro.analysis.checkers` on the verdict path, loads
neither the Table 2, LaTeX and figure layers nor numpy.
``from repro.analysis import verify_protocol`` works as before.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "BfsCanonical",
        "BuildEqualsInput",
        "ConnectivityCorrect",
        "EobBfsCorrect",
        "MisValid",
        "SpanningForestCanonical",
        "SquareCorrect",
        "TriangleCorrect",
        "TwoCliquesCorrect",
    ), "checkers"),
    **dict.fromkeys((
        "klogn_budget", "linear_budget", "logn_budget", "polylog_budget",
    ), "budgets"),
    **dict.fromkeys((
        "escape_latex", "lemma1_to_latex", "table2_to_latex",
    ), "latex"),
    **dict.fromkeys((
        "ascii_adjacency", "render_figure1", "render_figure2",
    ), "figures"),
    **dict.fromkeys(("activation_timeline", "narrate"), "trace"),
    **dict.fromkeys((
        "dumps_run", "graph_from_dict", "graph_to_dict", "report_to_dict",
        "run_to_dict",
    ), "serialize"),
    **dict.fromkeys((
        "MessageStats", "cost_by_core", "cost_by_degree", "message_stats",
    ), "message_stats"),
    **dict.fromkeys(("SensitivityReport", "analyze"), "sensitivity"),
    **dict.fromkeys((
        "FitResult", "fit_against", "fit_klog", "fit_log", "is_sublinear",
    ), "scaling"),
    **dict.fromkeys((
        "EmpiricalCell", "Table2Result", "generate_table2", "render_table2",
    ), "table2"),
    **dict.fromkeys((
        "Checker", "Failure", "VerificationReport", "verify_protocol",
    ), "verify"),
}

__all__ = list(_EXPORTS)

# ``message_stats`` names a submodule and its function.  Binding the
# function now keeps it the package attribute; bound lazily, a later
# import of the submodule would put the module in its place.
from .message_stats import message_stats  # noqa: E402


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) on
    first use."""
    submodule = _EXPORTS.get(name)
    if submodule is not None:
        value = getattr(importlib.import_module(f".{submodule}", __name__),
                        name)
        globals()[name] = value
        return value
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
