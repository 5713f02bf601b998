"""Tests for the graph6 codec."""

import pickle

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators as gen
from repro.graphs import codec
from repro.graphs.codec import from_graph6, to_graph6
from repro.graphs.labeled_graph import LabeledGraph


class TestRoundtrip:
    @pytest.mark.parametrize(
        "graph",
        [
            LabeledGraph(0),
            LabeledGraph(1),
            LabeledGraph(5),
            gen.path_graph(4),
            gen.complete_graph(7),
            gen.petersen_graph(),
            gen.random_graph(20, 0.3, seed=1),
            gen.random_graph(63, 0.1, seed=2),  # crosses the 1-byte size limit
            gen.random_graph(70, 0.05, seed=3),  # 4-byte size prefix
        ],
        ids=["empty0", "K1", "empty5", "P4", "K7", "petersen", "G20", "G63", "G70"],
    )
    def test_roundtrip(self, graph):
        assert from_graph6(to_graph6(graph)) == graph

    def test_header_tolerated(self):
        g = gen.path_graph(3)
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_known_values(self):
        # 'D??' is the empty graph on 5 nodes (10 bits -> 2 body bytes);
        # 'A_' is K2.
        assert to_graph6(LabeledGraph(5)) == "D??"
        assert to_graph6(LabeledGraph(2, [(1, 2)])) == "A_"
        assert from_graph6("A_") == LabeledGraph(2, [(1, 2)])


class TestAgainstNetworkx:
    def test_matches_networkx_encoding(self):
        for seed in range(5):
            g = gen.random_graph(12, 0.4, seed=seed)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(12))
            nxg.add_edges_from((u - 1, v - 1) for u, v in g.edges())
            expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert to_graph6(g) == expected

    def test_parses_networkx_output(self):
        nxg = nx.petersen_graph()
        text = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        ours = from_graph6(text)
        assert ours.m == 15 and ours.is_regular(3)


class TestErrors:
    def test_empty_string(self):
        with pytest.raises(ValueError):
            from_graph6("")

    def test_truncated_body(self):
        with pytest.raises(ValueError):
            from_graph6("D")  # size says 5, body missing

    def test_trailing_data(self):
        with pytest.raises(ValueError):
            from_graph6(to_graph6(gen.path_graph(4)) + "??")

    def test_invalid_byte(self):
        with pytest.raises(ValueError):
            from_graph6("B\x1f")

    def test_nonzero_padding(self):
        # K2's byte with a padding bit flipped on
        with pytest.raises(ValueError):
            from_graph6("A" + chr(0b111111 + 63))


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_roundtrip_property(n, seed):
    g = gen.random_graph(n, 0.5, seed=seed) if n else LabeledGraph(0)
    assert from_graph6(to_graph6(g)) == g


def _networkx_graph6(g: LabeledGraph) -> str:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u - 1, v - 1) for u, v in g.edges())
    return nx.to_graph6_bytes(nxg, header=False).decode().strip()


# n up to 70 crosses the 63-node switch to the 4-byte size prefix.
sizes = st.integers(min_value=0, max_value=70)
seeds = st.integers(min_value=0, max_value=10 ** 6)


def _graph(n: int, seed: int) -> LabeledGraph:
    return gen.random_graph(n, 0.4, seed=seed) if n else LabeledGraph(0)


class TestCache:
    """Each graph keeps the string it was encoded or decoded with."""

    @settings(max_examples=40, deadline=None)
    @given(sizes, seeds)
    def test_cached_equals_fresh(self, n, seed):
        g = _graph(n, seed)
        first = to_graph6(g)
        assert to_graph6(g) is first
        uncached = LabeledGraph(g.n, g.edges())
        assert codec._encode(uncached) == first == _networkx_graph6(g)

    @settings(max_examples=40, deadline=None)
    @given(sizes, seeds)
    def test_header_and_newline_decode_to_the_bare_string(self, n, seed):
        g = _graph(n, seed)
        bare = to_graph6(g)
        decoded = from_graph6(">>graph6<<" + bare + "\n")
        assert decoded == g
        assert to_graph6(decoded) == bare == codec._encode(decoded)

    @settings(max_examples=40, deadline=None)
    @given(sizes, seeds, st.booleans())
    def test_pickle_round_trip(self, n, seed, encoded):
        g = _graph(n, seed)
        if encoded:
            to_graph6(g)
        digest = hash(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert hash(copy) == digest
        assert to_graph6(copy) == to_graph6(g) == codec._encode(g)

    def test_long_size_prefix_caches_the_canonical_string(self):
        # 'D??' written with the 4-byte size prefix parses, but
        # to_graph6 never produces that form for n <= 62.
        decoded = from_graph6("~??D??")
        assert decoded == LabeledGraph(5)
        assert to_graph6(decoded) == "D??"

    def test_cache_is_invisible(self):
        g = gen.petersen_graph()
        twin = gen.petersen_graph()
        to_graph6(g)
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
