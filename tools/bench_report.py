#!/usr/bin/env python
"""Render the ``BENCH_perf.json`` perf trajectory as a human report.

``benchmarks/bench_regression.py`` appends one entry per run (seconds and
speedup vs. the frozen seed baseline for each hot path).  This tool
prints the full trajectory and per-benchmark trend so a reviewer can see
at a glance whether a PR moved the hot paths, without re-running the
benchmarks.

The report is also a *drift gate*: it exits nonzero when the latest
recorded run is missing a benchmark that earlier runs (or the seed
baseline) cover, when one of the committed ``reports/`` sections is
missing, empty, or visibly stale (it no longer names every fixture or
strategy the current code ships), or when a bench's recorded
``table_hit_rate`` dropped more than 20% against the previous run on
the same machine (hit rates, unlike seconds, only compare within one
machine).  Use ``--allow-stale`` to render anyway while investigating.

With ``--campaign STORE.db`` it instead renders the cross-run witness
trajectories a campaign store has accumulated
(:mod:`repro.campaigns.trajectories`).

Usage::

    python tools/bench_report.py [path/to/BENCH_perf.json] [--allow-stale]
    python tools/bench_report.py --campaign path/to/store.db [--name X]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = REPO_ROOT / "BENCH_perf.json"
REPORTS_DIR = REPO_ROOT / "reports"

sys.path.insert(0, str(REPO_ROOT / "src"))


def load_trajectory(path: Path) -> dict:
    if not path.exists():
        raise SystemExit(
            f"{path} not found — run "
            "`PYTHONPATH=src python benchmarks/bench_regression.py` first"
        )
    return json.loads(path.read_text())


def _adversary_report_markers() -> list[str]:
    """Names the committed adversary report must mention to be fresh:
    every strategy in the shipped default portfolio, the shared
    transposition-table section the search-kernel PR added, and one row
    per fault budget the fault-matrix section sweeps."""
    from repro.adversaries import default_search_portfolio

    # Mirrors benchmarks.bench_adversary.FAULT_BUDGETS (benchmarks/ is
    # not a package); widen both together when the sweep grows.
    fault_budgets = ["crash:1", "loss:1", "dup:1", "crash:1,loss:1"]
    return (sorted({s.name for s in default_search_portfolio()})
            + ["transposition", "fault matrix"]
            + fault_budgets)


def _scale_curve_markers() -> list[str]:
    """Rows the committed scale curve must contain to be fresh.

    Mirrors ``benchmarks.bench_scale.CURVE_SIZES`` (benchmarks/ is not
    a package); widen both together when the curve grows.  Every size
    is a marker, and ``verify_seconds`` proves the curve times verdicts.
    """
    return ([f'"n": {n}' for n in (5, 6, 7, 8, 9, 10, 11, 12)]
            + ['"verify_seconds"'])


#: Committed report sections and the markers that prove freshness.  A
#: section whose file is missing/empty, or lacks a marker, fails the
#: gate — regenerating the report in the same PR as the code change is
#: the fix, not skipping the check.
def expected_sections() -> dict[str, tuple[Path, list[str]]]:
    return {
        "adversary_search": (
            REPORTS_DIR / "adversary_search.txt",
            _adversary_report_markers(),
        ),
        "parallel_sweep": (
            REPORTS_DIR / "parallel_sweep.txt",
            ["ExecutionPlan"],
        ),
        "scale_stress": (
            REPORTS_DIR / "scale_stress.json",
            ['"case"', '"seconds"', '"max_message_bits"'],
        ),
        "scale_curve": (
            REPORTS_DIR / "scale_curve.json",
            _scale_curve_markers(),
        ),
    }


def check_sections() -> list[str]:
    """Problems with the committed ``reports/`` sections ([] = fresh)."""
    problems = []
    for name, (path, markers) in expected_sections().items():
        if not path.exists():
            problems.append(f"section {name!r}: {path} is missing")
            continue
        text = path.read_text()
        if not text.strip():
            problems.append(f"section {name!r}: {path} is empty")
            continue
        if path.suffix == ".json":
            try:
                json.loads(text)
            except ValueError as exc:
                problems.append(
                    f"section {name!r}: {path} is not valid JSON ({exc})"
                )
                continue
        for marker in markers:
            if marker not in text:
                problems.append(
                    f"section {name!r}: {path} is stale — it does not "
                    f"mention {marker!r} (regenerate it from benchmarks/)"
                )
    return problems


def check_latest_run(trajectory: dict) -> list[str]:
    """Benchmarks the latest recorded run silently dropped ([] = none).

    Mandatory coverage is the seed baseline plus whatever the *previous*
    run recorded — a silent drop fails immediately, while a deliberate
    rename/removal heals after one fresh full run (plus a seed-baseline
    edit if the name was baselined); ancient history never pins the
    gate forever.
    """
    runs = trajectory.get("runs", [])
    if not runs:
        return []
    known: set[str] = set(trajectory.get("seed_baseline_seconds", {}))
    if len(runs) >= 2:
        known |= set(runs[-2].get("results", {}))
    latest = set(runs[-1].get("results", {}))
    return [
        f"latest run is missing benchmark {name!r} (recorded before, "
        "absent now — rerun benchmarks/bench_regression.py)"
        for name in sorted(known - latest)
    ]


#: Keys every recorded result carries; anything else is a bench-specific
#: extra (prune counts, hit rates, kernel steps, skip reasons) worth
#: surfacing next to the latest timings.
_TIMING_KEYS = frozenset({"seconds", "seed_seconds", "speedup_vs_seed"})


def _result_extras(result: dict) -> str:
    """The bench-specific extras of one result, rendered inline ("")."""
    extras = {k: v for k, v in result.items() if k not in _TIMING_KEYS}
    if not extras:
        return ""
    return ", ".join(f"{k}={v}" for k, v in sorted(extras.items()))


def hit_rate_regressions(trajectory: dict) -> list[str]:
    """Benches whose ``table_hit_rate`` fell >20% since the previous
    same-machine run ([] = none).

    A hit-rate collapse means the search stopped reusing its own work —
    a perf cliff that absolute seconds on a fast machine can hide.  Only
    runs recording the *same* machine compare: hit rates depend on the
    portfolio's timing-free structure, but guarding on the machine keeps
    the gate honest when the fleet mixes hosts mid-trajectory.
    """
    runs = trajectory.get("runs", [])
    if len(runs) < 2:
        return []
    latest = runs[-1]
    machine = latest.get("machine")
    previous = next(
        (run for run in reversed(runs[:-1])
         if machine is not None and run.get("machine") == machine),
        None,
    )
    if previous is None:
        return []
    problems = []
    for name, result in latest.get("results", {}).items():
        now = result.get("table_hit_rate")
        before = previous.get("results", {}).get(name, {}).get("table_hit_rate")
        if now is None or before is None or before <= 0:
            continue
        if now < 0.8 * before:
            problems.append(
                f"{name}: table_hit_rate fell {before:.3f} -> {now:.3f} "
                f"(> 20% regression vs the previous same-machine run — "
                "the search stopped reusing its table)"
            )
    return problems


def _machine_label(run: dict) -> str:
    """One-line machine summary of a run ("" when not recorded)."""
    machine = run.get("machine")
    if not machine:
        return ""
    parts = [f"{machine.get('cpu_count', '?')} cpu",
             f"py {machine.get('python', '?')}"]
    if machine.get("numpy"):
        parts.append(f"numpy {machine['numpy']}")
    return ", ".join(parts)


def cross_machine_notes(trajectory: dict) -> list[str]:
    """Runs whose recorded machine differs from the latest run's.

    Absolute seconds never transfer between machines, so any
    run-over-run delta involving a flagged row (or a row with no
    recorded machine at all) compares apples to oranges.
    """
    runs = trajectory.get("runs", [])
    if not runs:
        return []
    latest = runs[-1].get("machine")
    notes = []
    for i, run in enumerate(runs[:-1]):
        machine = run.get("machine")
        if machine is None:
            notes.append(
                f"run {i} ({run.get('timestamp', '?')}) predates machine "
                "metadata — treat deltas against it as cross-machine"
            )
        elif latest is not None and machine != latest:
            notes.append(
                f"run {i} ({run.get('timestamp', '?')}) ran on a different "
                f"machine ({_machine_label(run)} vs "
                f"{_machine_label(runs[-1])}) — seconds are not comparable"
            )
    return notes


def render(trajectory: dict) -> str:
    lines = ["Performance trajectory (speedup vs. seed baseline)", ""]
    baseline = trajectory.get("seed_baseline_seconds", {})
    for name, seconds in baseline.items():
        lines.append(f"  seed {name}: {seconds:.4f}s")
    lines.append("")

    runs = trajectory.get("runs", [])
    if not runs:
        lines.append("(no runs recorded)")
        return "\n".join(lines)

    names = sorted({n for run in runs for n in run.get("results", {})})
    header = f"{'timestamp':<22}" + "".join(f"{n:>22}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for run in runs:
        row = f"{run.get('timestamp', '?'):<22}"
        for name in names:
            r = run.get("results", {}).get(name)
            cell = f"{r['seconds']:.4f}s ({r['speedup_vs_seed']:.1f}x)" if r else "-"
            row += f"{cell:>22}"
        lines.append(row)

    lines.append("")
    latest = runs[-1].get("results", {})
    for name in names:
        r = latest.get(name)
        if r:
            line = (f"latest {name}: {r['seconds']:.4f}s, "
                    f"{r['speedup_vs_seed']:.1f}x faster than seed")
            extras = _result_extras(r)
            if extras:
                line += f" [{extras}]"
            lines.append(line)
    label = _machine_label(runs[-1])
    if label:
        lines.append(f"latest machine: {label}")
    for note in cross_machine_notes(trajectory):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_scale_curve() -> str:
    """The committed exhaustive-scaling curve as a table ("" if absent).

    Renders ``reports/scale_curve.json`` (written by
    ``benchmarks/bench_scale.py::test_scale_curve``) so a reviewer sees
    what an exhaustive verdict (``verify``) costs at each size, and
    where the scalar ``count_executions`` walk stops being timed,
    without re-running the benchmark.
    """
    path = REPORTS_DIR / "scale_curve.json"
    if not path.exists():
        return ""
    try:
        curve = json.loads(path.read_text())
    except ValueError:
        return ""
    lines = ["", f"Exhaustive verification curve ({curve.get('fixture', '?')})",
             ""]
    lines.append(f"{'n':>3} {'executions':>12} {'scalar':>10} {'verify':>10}")
    for row in curve.get("rows", []):
        scalar = row.get("scalar_seconds")
        scalar_cell = f"{scalar:.4f}s" if scalar is not None else "(cliff)"
        verify = row.get("verify_seconds")
        verify_cell = f"{verify:.4f}s" if verify is not None else "-"
        lines.append(
            f"{row.get('n', '?'):>3} {row.get('executions', '?'):>12} "
            f"{scalar_cell:>10} {verify_cell:>10}"
        )
    return "\n".join(lines)


def render_campaign(store_path: Path, name: str | None) -> str:
    from repro.campaigns import ResultStore, render_trajectories

    if not store_path.exists():
        raise SystemExit(
            f"{store_path} not found — run `python -m repro campaign run "
            f"--store {store_path} ...` first"
        )
    with ResultStore(store_path) as store:
        return render_trajectories(store, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=None,
                        help="BENCH_perf.json location (default: repo root)")
    parser.add_argument("--allow-stale", action="store_true",
                        help="render even when sections are stale/missing")
    parser.add_argument("--campaign", metavar="STORE",
                        help="render witness trajectories from a campaign "
                             "store instead of the perf trajectory")
    parser.add_argument("--name", default=None,
                        help="campaign name filter (with --campaign)")
    args = parser.parse_args(argv)

    if args.campaign:
        print(render_campaign(Path(args.campaign), args.name))
        return 0

    path = Path(args.path) if args.path else DEFAULT_PATH
    trajectory = load_trajectory(path)
    print(render(trajectory))
    curve = render_scale_curve()
    if curve:
        print(curve)

    problems = (check_latest_run(trajectory) + check_sections()
                + hit_rate_regressions(trajectory))
    if problems:
        print()
        for problem in problems:
            print(f"DRIFT: {problem}", file=sys.stderr)
        if not args.allow_stale:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
