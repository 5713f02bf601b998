"""Golden-output tests for the sketch protocols.

The vectorized sketch engine (cached coins, batched updates, flat cell
arrays, closed-form slot codec) must be *observationally invisible*:
seeded payloads have to stay bit-identical to the original per-update
implementation.  The fixture ``sketch_golden_seed.json`` was captured
from the seed implementation before any optimization — per-node payload
sizes, SHA-256 digests of the exact canonical bit encodings, and the
decoded spanning forests for ``n ∈ {8, 16, 32}``.  Any change to the
public coins, the cell layout, the slot codec, or the payload codec that
alters a single bit fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import SIMASYNC, MinIdScheduler, run
from repro.encoding.bits import encode_payload, payload_bits
from repro.graphs import generators as gen
from repro.protocols.sketching import (
    SketchConnectivityProtocol,
    SketchSpanningForestProtocol,
)

FIXTURE = Path(__file__).parent.parent / "fixtures" / "sketch_golden_seed.json"
GOLDEN = json.loads(FIXTURE.read_text())


def _instance(n: int):
    """The exact (graph, seed) pair the fixture was captured with."""
    return gen.random_connected_graph(n, 0.3, seed=n * 7 + 1), n * 13 + 5


@pytest.mark.parametrize("n", [8, 16, 32])
class TestGoldenSketchOutputs:
    def test_graph_generation_is_stable(self, n):
        g, _ = _instance(n)
        assert sorted(map(list, g.edge_set())) == GOLDEN[str(n)]["edges"]

    def test_payloads_bit_identical(self, n):
        g, seed = _instance(n)
        want = GOLDEN[str(n)]
        r = run(g, SketchConnectivityProtocol(shared_seed=seed), SIMASYNC,
                MinIdScheduler())
        assert r.success
        got_bits = []
        got_digests = []
        for e in r.board.entries:
            bits = encode_payload(e.payload)
            assert e.bits == payload_bits(e.payload) == len(bits)
            got_bits.append(e.bits)
            got_digests.append(hashlib.sha256(bytes(bits)).hexdigest())
        assert got_bits == want["payload_bits"]
        assert got_digests == want["payload_sha256"]
        assert r.total_bits == want["total_bits"]
        assert r.max_message_bits == want["max_message_bits"]

    def test_connectivity_output(self, n):
        g, seed = _instance(n)
        r = run(g, SketchConnectivityProtocol(shared_seed=seed), SIMASYNC,
                MinIdScheduler())
        assert r.output == GOLDEN[str(n)]["connectivity_output"]

    def test_spanning_forest_output(self, n):
        g, seed = _instance(n)
        r = run(g, SketchSpanningForestProtocol(shared_seed=seed), SIMASYNC,
                MinIdScheduler())
        assert sorted(map(list, r.output)) == GOLDEN[str(n)]["spanning_forest"]


DENSE = json.loads(
    (FIXTURE.parent / "sketch_golden_dense.json").read_text()
)


def test_dense_payloads_bit_identical():
    """Nodes of degree >= 32 feed long incidence streams to
    ``L0Sampler.batch_update``.  The fixture was captured from the
    implementation that sketched those streams on vectorised uint64
    lanes; the scalar loop must reproduce every payload bit."""
    g = gen.random_connected_graph(DENSE["n"], DENSE["p"],
                                   seed=DENSE["graph_seed"])
    assert max(g.degree(v) for v in g.nodes()) == DENSE["max_degree"] >= 32
    r = run(g, SketchConnectivityProtocol(shared_seed=DENSE["shared_seed"]),
            SIMASYNC, MinIdScheduler())
    assert r.success
    assert [e.bits for e in r.board.entries] == DENSE["payload_bits"]
    assert [
        hashlib.sha256(bytes(encode_payload(e.payload))).hexdigest()
        for e in r.board.entries
    ] == DENSE["payload_sha256"]
    assert r.total_bits == DENSE["total_bits"]
    assert r.max_message_bits == DENSE["max_message_bits"]
    assert r.output == DENSE["connectivity_output"]
