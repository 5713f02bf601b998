"""What a verdict loads at start-up.

Each check runs in a fresh interpreter, because the test session has
long since imported everything.  The verdict path (engine, adversaries,
runtime, campaigns, CLI) must load neither numpy nor the report layers;
those load on first use and keep working when asked for.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules no verdict needs.
REPORT_ONLY = (
    "numpy",
    "repro.analysis.table2",
    "repro.analysis.latex",
    "repro.analysis.figures",
    "repro.analysis.sensitivity",
    "repro.experiments",
    "repro.hierarchy",
    "repro.reductions",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def loaded_after(code: str) -> list:
    """The modules of :data:`REPORT_ONLY` loaded after running ``code``."""
    out = run_fresh(textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {REPORT_ONLY!r} if m in sys.modules]))
    """))
    return json.loads(out.strip().splitlines()[-1])


def test_stress_verdict_loads_no_report_layer():
    loaded = loaded_after("""
        import repro.campaigns, repro.faults.claims, repro.cli
        assert repro.cli.main(["stress", "--protocol", "build-degenerate",
                               "--family", "k-degenerate",
                               "--sizes", "4"]) == 0
    """)
    assert loaded == []


def test_core_and_adversaries_import_no_numpy():
    loaded = loaded_after("""
        import repro.core, repro.adversaries
    """)
    assert "numpy" not in loaded


def test_sketch_protocol_on_a_dense_graph_loads_no_numpy():
    """Degree-48 nodes feed 48-update streams to ``L0Sampler``; the
    sketch protocols run on the standard library alone."""
    loaded = loaded_after("""
        from repro.core import SIMASYNC, MinIdScheduler, run
        from repro.graphs import generators as gen
        from repro.protocols.sketching import SketchConnectivityProtocol

        g = gen.complete_graph(49)
        assert min(g.degree(v) for v in g.nodes()) >= 32
        r = run(g, SketchConnectivityProtocol(shared_seed=3), SIMASYNC,
                MinIdScheduler())
        assert r.success and r.output == 1
    """)
    assert "numpy" not in loaded


def test_trace_manifest_names_numpy_without_loading_it():
    """A traced verdict records the numpy version in its manifest."""
    loaded = loaded_after("""
        from repro.telemetry import machine_metadata
        assert machine_metadata()["numpy"]
    """)
    assert "numpy" not in loaded


def test_lazy_names_still_resolve():
    out = run_fresh("""
        import repro
        from repro.analysis import render_figure1, verify_protocol
        from repro.graphs import generators as gen

        a = gen.path_graph(3).adjacency_matrix()
        print(a.tolist(), callable(verify_protocol), callable(render_figure1))
        print(repro.core.__name__, repro.analysis.table2.__name__)
    """)
    assert out.splitlines() == [
        "[[0, 1, 0], [1, 0, 1], [0, 1, 0]] True True",
        "repro.core repro.analysis.table2",
    ]


def test_every_analysis_name_resolves():
    """Each public name is the object its submodule defines, also where
    the name is a submodule's too (``message_stats``)."""
    import importlib

    import repro.analysis

    for name, submodule in repro.analysis._EXPORTS.items():
        defined = importlib.import_module(f"repro.analysis.{submodule}")
        assert getattr(repro.analysis, name) is getattr(defined, name), name


def test_protocol_score_hook_resolves_before_census_import():
    """A census-registered hook resolves in a process that has not
    imported the census yet (a fresh interpreter, a spawned worker)."""
    out = run_fresh("""
        import sys
        from repro.adversaries.scoring import resolve_score
        assert "repro.protocols.census" not in sys.modules
        print(type(resolve_score("sketch-decode")).__name__)
    """)
    assert out.strip() == "SketchDecodeScore"
