"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME``.

Run from the repository root.  One invocation measures one workload
(see ``perfbench/README.md``):

1. one measuring child runs the workload for ``--seconds`` in a closed
   loop (one repetition at a time, at most ``--jobs`` pool workers),
   checks every verdict and reports the median repetition;
2. between its repetitions, spread over the run, it asks for
   :data:`PROBES` fresh child interpreters that each time the set-up
   (import, plans, store, backend); ``setup_s`` is the median of their
   :func:`set_up_figures`;
3. the last stdout line is one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics`` (``--trace 0``: end-to-end
   metrics; ``--trace 1``: the per-layer ledger).

The lines before it record the machine and the workload's fixed work.
Exits 2 without a result when the ``repro`` sources are missing, when
``--jobs`` exceeds the CPUs available, or when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.child import PROBE_REQUEST  # noqa: E402 - imports no repro
from perfbench.ledger import PER_LAYER  # noqa: E402 - stdlib-only module

#: Hard limit on the whole invocation, below the 180 s a run may take.
DEADLINE_S = 170.0
#: Fresh interpreters timed per run.
PROBES = 15
#: Probes averaged into one set-up figure.
PROBES_PER_FIGURE = 3


def _spawn(role: str, args, workdir: Path, **popen) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(args.jobs), "--workdir", str(workdir)]
    if role == "measure":
        cmd += ["--probes", str(PROBES)]
    # A session of its own, so a timeout can stop the child together
    # with the pool workers it forked.
    return subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            start_new_session=True, **popen)


def _stop(proc: subprocess.Popen) -> None:
    """Kill ``proc`` with its pool workers and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _probe(args, workdir: Path, timeout: float) -> dict:
    """One set-up probe: the phase times of a fresh interpreter."""
    proc = _spawn("setup", args, workdir, stdout=subprocess.PIPE,
                  stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"setup child exited {proc.returncode}:\n"
                           f"{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def set_up_figures(probes: list[dict], name: str) -> list[float]:
    """The set-up figures of one phase: each the mean of
    :data:`PROBES_PER_FIGURE` probes taken apart in time (probes 0, 5,
    10; 1, 6, 11; ... of 15).

    One probe runs on a CPU that is either fast or about 1.4x slower at
    that moment, so single probes fall into two clusters and their
    median jumps from one to the other as the slow share of a run
    crosses one half.  A mean of probes from different parts of the run
    moves with the slow share in steps, and the median of the figures
    still drops an outlying one.
    """
    count = len(probes) // PROBES_PER_FIGURE
    return [statistics.fmean(p[name] for p in probes[i::count])
            for i in range(count)]


def _measure(args, workdir: Path, deadline: float) -> tuple[dict, list[dict]]:
    """Run the measuring child; run a set-up probe each time it asks for
    one, while it waits.  Returns its result and the probes' times."""
    stderr_path = workdir / "measure.stderr"
    with open(stderr_path, "w") as stderr:
        proc = _spawn("measure", args, workdir, stdin=subprocess.PIPE,
                      stdout=subprocess.PIPE, stderr=stderr)
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        _stop(proc)

    timer = threading.Timer(deadline - perf_counter(), expire)
    timer.start()
    probes: list[dict] = []
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == PROBE_REQUEST:
                probes.append(_probe(args, workdir,
                                     timeout=deadline - perf_counter()))
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    except BaseException:
        _stop(proc)
        raise
    finally:
        timer.cancel()
        timer.join()
    if expired.is_set():
        raise subprocess.TimeoutExpired(proc.args, DEADLINE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measure child exited {proc.returncode}:\n"
                           f"{stderr_path.read_text()[-2000:]}")
    if len(probes) != PROBES:
        raise RuntimeError(f"measure child asked for {len(probes)} set-up "
                           f"probes, not {PROBES}")
    return json.loads(last), probes


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=min(2, nproc),
                        help="pool workers (default: min(2, nproc))")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not 1 <= args.jobs <= nproc:
        print(f"perfbench: --jobs {args.jobs} exceeds the {nproc} CPU(s) "
              "available", file=sys.stderr)
        return 2

    start = perf_counter()
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, probes = _measure(args, workdir, start + DEADLINE_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = dict(result["metrics"])
    setup = {name: statistics.median(set_up_figures(probes, name))
             for name in probes[0]}
    if args.trace:
        for name in ("cli.import_s", "runtime.plan.build_s",
                     "campaigns.store.open_s", "runtime.backends.start_s"):
            metrics[name] = setup[name]
        units = dict(PER_LAYER)
    else:
        metrics["setup_s"] = setup["setup_s"]
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"work {args.workload} seed={args.seed} "
          + json.dumps(result["work"], sort_keys=True))
    print(f"reps {result['reps']}: untraced walls "
          + " ".join(f"{wall:.4f}" for wall in result["walls"])
          + " | setup " + " ".join(f"{p['setup_s']:.4f}" for p in probes))
    for error in result["errors"]:
        print(f"error {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
