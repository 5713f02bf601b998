"""Tests for the named graph-class registry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.families import (
    FAMILIES,
    FAMILY_ALIASES,
    GraphClass,
    family,
    k_degenerate_class,
)
from repro.graphs.generators import all_labeled_graphs, complete_graph, cycle_graph
from repro.graphs.properties import is_even_odd_bipartite


class TestRegistry:
    def test_known_families_present(self):
        for name in ("all", "forests", "degenerate2", "bipartite",
                     "even-odd-bipartite", "two-cliques-promise"):
            assert family(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            family("unicorns")

    def test_descriptions_nonempty(self):
        for cls in FAMILIES.values():
            assert cls.description


class TestSamplersStayInClass:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_sample_in_class(self, name):
        cls = family(name)
        sizes = {
            "two-cliques-promise": (8, 12),        # needs even n
            "odd-cycles": (5, 9, 13),              # class empty at even n
            "odd-cycle-probe": (5, 9, 13),
        }.get(name, (6, 10, 14))
        for n in sizes:
            for seed in range(3):
                g = cls.sample_in_class(n, seed)
                assert g.n == n

    def test_sampler_guard_fires(self):
        bad = GraphClass(
            name="broken",
            description="sampler leaves its class",
            contains=lambda g: False,
            sample=lambda n, seed: complete_graph(n),
        )
        with pytest.raises(AssertionError):
            bad.sample_in_class(4, 0)


class TestMembership:
    def test_forests(self):
        cls = family("forests")
        assert cls.contains(cls.sample(9, 1))
        assert not cls.contains(cycle_graph(5))

    def test_k_degenerate_factory(self):
        cls = k_degenerate_class(4)
        assert cls.contains(complete_graph(5))
        assert not cls.contains(complete_graph(6))

    def test_even_odd(self):
        cls = family("even-odd-bipartite")
        g = cls.sample(11, 3)
        assert is_even_odd_bipartite(g)

    def test_two_cliques_promise(self):
        cls = family("two-cliques-promise")
        from repro.graphs.generators import connected_two_cliques_like, two_cliques

        assert cls.contains(two_cliques(4))
        assert cls.contains(connected_two_cliques_like(4, seed=1))
        assert not cls.contains(complete_graph(8))


class TestCounts:
    def test_exact_counts_small_n(self):
        """Where log2_count is exact, cross-check by enumeration."""
        for name in ("all", "even-odd-bipartite"):
            cls = family(name)
            for n in (2, 3, 4):
                exact = sum(1 for g in all_labeled_graphs(n) if cls.contains(g))
                assert 2 ** cls.log2_count(n) == pytest.approx(exact)

    def test_lower_bound_counts(self):
        """Where log2_count is a documented lower bound, enumeration must
        dominate it."""
        cls = family("forests")
        for n in (3, 4):
            exact = sum(1 for g in all_labeled_graphs(n) if cls.contains(g))
            assert exact >= 2 ** cls.log2_count(n) - 1e-9


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 10 ** 6))
def test_samplers_in_class_property(name, seed):
    cls = family(name)
    n = 8 if name.startswith("two-cliques") else 9  # both need even n
    assert cls.contains(cls.sample(n, seed))


class TestOddCycleClasses:
    def test_registered(self):
        assert family("odd-cycles").name == "odd-cycles"
        assert family("odd-cycle-probe").name == "odd-cycle-probe"

    def test_membership(self):
        odd = family("odd-cycles")
        assert odd.contains(cycle_graph(5))
        assert not odd.contains(cycle_graph(4))      # even cycle
        assert not odd.contains(complete_graph(5))   # not 2-regular

    def test_probe_membership(self):
        from repro.graphs.generators import odd_cycle_with_probe, path_graph

        probe = family("odd-cycle-probe")
        assert probe.contains(odd_cycle_with_probe(5))
        assert probe.contains(odd_cycle_with_probe(9))
        assert not probe.contains(cycle_graph(5))    # no probe edge
        assert not probe.contains(path_graph(7))

    def test_sampling_is_strict_about_parity(self):
        assert family("odd-cycles").sample(7, 3).n == 7
        assert family("odd-cycle-probe").sample(7, 0).n == 7
        with pytest.raises(ValueError):
            family("odd-cycles").sample(6, 0)
        with pytest.raises(ValueError):
            family("odd-cycle-probe").sample(6, 0)


class TestEverySize:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_sample_has_n_nodes_or_raises_value_error(self, name):
        """A class either samples exactly ``n`` nodes inside itself or
        rejects the size with ``ValueError`` (a usage error), never a
        graph of another size and never an ``AssertionError``."""
        cls = family(name)
        for n in range(0, 13):
            for seed in range(3):
                try:
                    g = cls.sample(n, seed)
                except ValueError:
                    continue
                assert g.n == n and cls.contains(g), (name, n, seed)

    def test_two_cliques_reject_odd_and_tiny_sizes(self):
        for name in ("two-cliques-yes", "two-cliques-promise"):
            for n in (0, 1, 3, 5, 9):
                with pytest.raises(ValueError):
                    family(name).sample_in_class(n, 0)

    def test_guard_catches_a_wrong_size(self):
        shrunk = GraphClass(
            name="shrunk",
            description="sampler drops a node",
            contains=lambda g: True,
            sample=lambda n, seed: complete_graph(n - 1),
        )
        with pytest.raises(AssertionError, match="drew 3 nodes"):
            shrunk.sample_in_class(4, 0)


class TestAliases:
    @pytest.mark.parametrize("alias", sorted(FAMILY_ALIASES))
    def test_alias_resolves_to_its_class(self, alias):
        assert alias not in FAMILIES
        assert family(alias) is FAMILIES[FAMILY_ALIASES[alias]]

    def test_campaign_cell_stores_the_registered_name(self):
        from repro.campaigns import CampaignCell

        cell = CampaignCell("build-degenerate", "k-degenerate", (4,), (0,))
        assert cell.family == "degenerate2"
        assert cell == CampaignCell("build-degenerate", "degenerate2",
                                    (4,), (0,))
