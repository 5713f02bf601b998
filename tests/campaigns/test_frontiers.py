"""Persistent cross-run transposition frontiers: codec, store, warm runs.

The frontier store only stays sound if three things hold across process
and run boundaries: the codec round-trips every entry shape exactly
(exact frontiers, deadlock-free facts), the digests and cell keys are
stable whatever ``PYTHONHASHSEED`` the process drew, and a code edit
(salt change) invalidates every persisted row rather than serving a
stale frontier.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adversaries.transposition import Completion, TableEntry
from repro.campaigns import (
    Campaign,
    ResultStore,
    task_cell_key,
    warm_smoke_campaign,
)
from repro.campaigns.frontiers import (
    cell_key,
    decode_entry,
    decode_key,
    decode_rows,
    encode_entry,
    encode_key,
    encode_rows,
)
from repro.campaigns.store import report_to_jsonable, witness_to_jsonable
from repro.core import SIMASYNC
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

EXACT = TableEntry(
    completions=(Completion(False, 3, 7, (1, 0, 2)),
                 Completion(True, 0, 0, (2,))),
    deadlock_free=False,
)
EXACT_DEADLOCK_FREE = TableEntry(
    completions=(Completion(False, 4, 9, (0, 1)),),
    deadlock_free=True,
)
DEADLOCK_FREE = TableEntry(deadlock_free=True)

#: A representative config key: ints, bools, None, nested tuples and
#: frozensets — every component shape ``ExecutionState.config_key`` emits.
SAMPLE_KEY = (
    (1, (2, 3), None),
    frozenset({1, 3, 5}),
    frozenset(),
    (True, False),
    ((frozenset({2}), 7),),
)


class TestCodec:
    @pytest.mark.parametrize(
        "entry", [EXACT, EXACT_DEADLOCK_FREE, DEADLOCK_FREE],
        ids=["exact", "exact-deadlock-free", "deadlock-free"])
    def test_entry_round_trip(self, entry):
        decoded = decode_entry(encode_entry(entry))
        assert decoded.completions == entry.completions
        assert decoded.exact == entry.exact
        assert decoded.deadlock_free == entry.deadlock_free
        assert decoded.warm is False  # preload re-applies the flag

    def test_entry_json_keeps_completions_and_deadlock_free(self):
        """Exactness follows from holding completions, so the row
        stores nothing else."""
        assert set(json.loads(encode_entry(EXACT))) == {
            "completions", "deadlock_free"}
        assert EXACT.exact and not DEADLOCK_FREE.exact

    def test_key_round_trip(self):
        assert decode_key(encode_key(SAMPLE_KEY)) == SAMPLE_KEY

    def test_key_json_is_hashseed_free(self):
        """Frozenset components must serialise sorted, not in iteration
        order — the encoded form is the cross-process identity."""
        encoded = encode_key((frozenset({5, 1, 3}),))
        assert json.loads(encoded) == ["t", ["f", 1, 3, 5]]

    def test_rows_sorted_by_digest(self):
        rows = encode_rows([(SAMPLE_KEY, EXACT),
                            ((frozenset({9}),), DEADLOCK_FREE)])
        assert [digest for digest, _, _ in rows] == sorted(
            digest for digest, _, _ in rows)
        decoded = decode_rows((key, entry) for _, key, entry in rows)
        assert {k for k, _ in decoded} == {SAMPLE_KEY, (frozenset({9}),)}

    def test_cell_key_sensitivity(self):
        g = gen.random_k_degenerate(5, 2, seed=0)
        base = cell_key(g, DegenerateBuildProtocol(2), "SIMASYNC", None, None)
        assert base == cell_key(g, DegenerateBuildProtocol(2), "SIMASYNC",
                                None, None)
        assert base != cell_key(g, DegenerateBuildProtocol(2), "SIMASYNC",
                                64, None)
        assert base != cell_key(g, DegenerateBuildProtocol(2), "SIMASYNC",
                                None, "crash:1")
        assert base != cell_key(g, DegenerateBuildProtocol(3), "SIMASYNC",
                                None, None)
        assert base != cell_key(gen.random_k_degenerate(5, 2, seed=1),
                                DegenerateBuildProtocol(2), "SIMASYNC",
                                None, None)


class TestHashSeedStability:
    SNIPPET = (
        "from repro.core import SIMASYNC\n"
        "from repro.core.execution import ExecutionState\n"
        "from repro.campaigns.frontiers import (cell_key, config_key_digest,"
        " encode_rows)\n"
        "from repro.adversaries.transposition import TableEntry\n"
        "from repro.faults.spec import resolve_faults\n"
        "from repro.graphs import generators as gen\n"
        "from repro.protocols.build import DegenerateBuildProtocol\n"
        "g = gen.random_k_degenerate(5, 2, seed=0)\n"
        "proto = DegenerateBuildProtocol(2)\n"
        "state = ExecutionState.initial(g, proto, SIMASYNC,"
        " faults=resolve_faults('crash:1'))\n"
        "state.advance(state.candidates[0])\n"
        "key = state.config_key()\n"
        "rows = encode_rows([(key, TableEntry(deadlock_free=True))])\n"
        "print(config_key_digest(key).hex())\n"
        "print(cell_key(g, proto, 'SIMASYNC', None, 'crash:1'))\n"
        "print(rows[0][0], rows[0][1])\n"
    )

    def test_digests_stable_across_hash_seeds(self):
        """``config_key_digest``, cell keys and encoded rows must be
        byte-identical across processes with different hash seeds —
        the store joins on them across runs."""
        outputs = []
        for seed in ("0", "424242"):
            env = dict(os.environ,
                       PYTHONHASHSEED=seed,
                       PYTHONPATH=str(REPO_ROOT / "src"))
            result = subprocess.run(
                [sys.executable, "-c", self.SNIPPET],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()


def _make_entry_rows():
    return [(SAMPLE_KEY, EXACT), ((frozenset({9}),), DEADLOCK_FREE)]


class TestStoreFrontiers:
    def test_put_load_round_trip(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            assert store.put_frontiers("cell-a", _make_entry_rows()) == 2
            loaded = dict(store.load_frontiers("cell-a"))
            assert loaded[SAMPLE_KEY].completions == EXACT.completions
            assert loaded[SAMPLE_KEY].exact
            assert loaded[(frozenset({9}),)].deadlock_free
            assert not loaded[(frozenset({9}),)].exact
            assert store.load_frontiers("cell-b") == []
            assert store.stats()["frontiers"] == 2

    def test_replace_tightens_in_place(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.put_frontiers("cell-a", [(SAMPLE_KEY, DEADLOCK_FREE)])
            store.put_frontiers("cell-a", [(SAMPLE_KEY, EXACT)])
            assert store.frontier_count("cell-a") == 1
            [(_, entry)] = store.load_frontiers("cell-a")
            assert entry.exact

    def test_stale_salt_serves_nothing(self, tmp_path):
        path = tmp_path / "s.db"
        with ResultStore(path, salt="v1") as store:
            store.put_frontiers("cell-a", _make_entry_rows())
            assert len(store.load_frontiers("cell-a")) == 2
        with ResultStore(path, salt="v2") as stale:
            assert stale.load_frontiers("cell-a") == []
            # unservable, but still counted until gc sweeps them
            assert stale.frontier_count() == 2

    def test_gc_keeps_live_drops_orphans_and_stale(self, tmp_path):
        path = tmp_path / "s.db"
        with ResultStore(path, salt="v1") as store:
            store.put_frontiers("live-cell", _make_entry_rows())
            store.put_frontiers("orphan-cell", [(SAMPLE_KEY, DEADLOCK_FREE)])
        with ResultStore(path, salt="v2") as store:
            store.put_frontiers("live-cell", [(SAMPLE_KEY, EXACT)])
            removed = store.gc_frontiers(["live-cell"])
            # the v2 put replaced live-cell's SAMPLE_KEY row in place, so
            # gc sweeps live-cell's remaining v1 row plus the orphan cell
            assert removed == 2
            assert store.frontier_count() == 1
            [(key, entry)] = store.load_frontiers("live-cell")
            assert key == SAMPLE_KEY and entry.exact

    def test_result_gc_leaves_frontiers_alone(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.put_frontiers("cell-a", _make_entry_rows())
            store.gc([])
            assert store.frontier_count() == 2


def _result_payload(result):
    return {
        "report": report_to_jsonable(result.report),
        "witnesses": [witness_to_jsonable(w)
                      for w in result.report.witnesses],
    }


class TestWarmCampaign:
    def test_warm_run_fewer_steps_identical_report(self, tmp_path):
        campaign = Campaign(warm_smoke_campaign())
        with ResultStore(tmp_path / "warm.db") as store:
            cold = campaign.run(store, warm_frontiers=True)
            assert store.frontier_count() > 0
            store.gc([])  # drop results, keep frontiers: force re-execution
            warm = campaign.run(store, warm_frontiers=True)
        assert warm.executed == warm.tasks
        assert warm.kernel.steps < cold.kernel.steps
        assert warm.kernel.frontier_hits > 0
        assert _result_payload(warm) == _result_payload(cold)

    def test_warm_flag_invisible_to_fingerprints(self, tmp_path):
        """Warm frontiers change the work, never the result, so a warm
        run must be a pure cache hit for an identical cold run."""
        campaign = Campaign(warm_smoke_campaign())
        with ResultStore(tmp_path / "warm.db") as store:
            campaign.run(store, warm_frontiers=True)
            replay = campaign.run(store, warm_frontiers=False)
        assert replay.hits == replay.tasks

    def test_task_cell_keys_cover_search_cells(self):
        campaign = Campaign(warm_smoke_campaign())
        keys = campaign.live_frontier_cell_keys()
        assert keys
        for _, plan in campaign.spec.plans():
            for task in plan.tasks:
                if task.mode == "search":
                    assert task_cell_key(task) in keys
