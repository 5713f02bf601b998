#!/usr/bin/env python
"""CI gate for the persistent warm-frontier store.

Runs the built-in warm-frontier smoke campaign twice against one store:

1. **Cold**: an empty store — every task executes, exporting its
   transposition frontiers (exact completion frontiers plus deadlock-free
   facts) into the store's ``frontiers`` table.
2. **Warm**: results are garbage-collected (``store.gc([])``) but the
   frontiers survive, so the second run re-executes the same tasks with
   preloaded tables.

The gate then asserts the two invariants the warm path promises:

* the warm run re-expands **strictly fewer** nodes (folded kernel
  steps) while serving at least one frontier hit, and
* the merged campaign reports (and every witness) are **byte-identical**
  — serving frontiers changes the work done to find a witness, never
  the witness.

Finally it re-opens the store under a deliberately different
code-version salt and asserts **zero** frontier rows are served: any
source edit invalidates persisted frontiers wholesale rather than
risking a stale frontier.

Usage::

    PYTHONPATH=src python tools/warm_smoke.py [store.db]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaigns import Campaign, ResultStore, warm_smoke_campaign  # noqa: E402
from repro.campaigns.store import (  # noqa: E402
    report_to_jsonable,
    witness_to_jsonable,
)


def _report_bytes(result) -> bytes:
    """The merged report plus every witness, canonically serialised."""
    payload = {
        "report": report_to_jsonable(result.report),
        "witnesses": [witness_to_jsonable(w) for w in result.report.witnesses],
        "cells": [
            {
                "report": report_to_jsonable(cell.report),
                "witnesses": [
                    witness_to_jsonable(w) for w in cell.report.witnesses
                ],
            }
            for cell in result.cells
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        store_path = Path(argv[0])
    else:
        store_path = Path(tempfile.mkdtemp(prefix="warm-smoke-")) / "store.db"

    campaign = Campaign(warm_smoke_campaign())

    with ResultStore(store_path) as store:
        cold = campaign.run(store, warm_frontiers=True)
        assert cold.executed == cold.tasks, (
            f"cold run expected a cold store, got {cold.hits} hits"
        )
        rows = store.frontier_count()
        assert rows > 0, "cold run exported no frontier rows"
        # Drop the cached results but keep the frontiers: the second run
        # must re-execute, not replay the result cache.
        store.gc([])
        warm = campaign.run(store, warm_frontiers=True)
        assert warm.executed == warm.tasks, (
            f"warm run expected re-execution, got {warm.hits} hits"
        )

    cold_steps = cold.kernel.steps
    warm_steps = warm.kernel.steps
    assert warm_steps < cold_steps, (
        f"warm run must re-expand strictly fewer nodes: "
        f"cold {cold_steps} steps, warm {warm_steps}"
    )
    assert warm.kernel.frontier_hits > 0, (
        "warm run served no frontier hits despite a warm store"
    )
    cold_bytes = _report_bytes(cold)
    warm_bytes = _report_bytes(warm)
    assert cold_bytes == warm_bytes, (
        "warm report diverged from the cold run — frontiers must be "
        "report-invariant"
    )

    with ResultStore(store_path, salt="stale-code-version") as stale:
        served = sum(
            len(stale.load_frontiers(cell_key))
            for cell_key in campaign.live_frontier_cell_keys()
        )
        assert served == 0, (
            f"a stale code-version salt served {served} frontier rows; "
            "it must serve none"
        )

    print(
        f"warm smoke OK: {rows} frontier rows, kernel steps "
        f"{cold_steps} -> {warm_steps}, {warm.kernel.frontier_hits} "
        "frontier hits, reports byte-identical, stale salt serves 0 rows"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
