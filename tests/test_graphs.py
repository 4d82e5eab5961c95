"""Colored coincidence graphs: enumeration, wedges, inclusion-exclusion,
factorization, and the exponent recursion."""

import tracemalloc
from fractions import Fraction

import pytest

from hyperhaar import coincidence, graphs, riesz
from hyperhaar.graphs import AdmissibleGraph
from hyperhaar.hyperbolic import CoefficientField

import oracles


def edge(v, w, color):
    if color == 2:
        return AdmissibleGraph.make((v, w), [(v, w)], [])
    return AdmissibleGraph.make((v, w), [], [(v, w)])


# ---------------------------------------------------------------------------
# admissibility and enumeration
# ---------------------------------------------------------------------------


class TestAdmissibility:
    def test_two_vertex_graphs(self):
        assert graphs.is_admissible(edge(1, 2, 2))
        assert graphs.is_admissible(edge(1, 2, 3))
        both = AdmissibleGraph.make((1, 2), [(1, 2)], [(1, 2)])
        assert not graphs.is_admissible(both)

    def test_uncovered_vertex_inadmissible(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [])
        assert not graphs.is_admissible(g)

    def test_overlapping_same_color_cliques_inadmissible(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2), (2, 3)], [])
        assert not graphs.is_admissible(g)

    def test_cross_color_single_shared_vertex_allowed(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [(2, 3)])
        assert graphs.is_admissible(g)

    def test_frozen_admissible_counts(self):
        expected = {1: 0, 2: 2, 3: 8, 4: 68}
        for size, count in expected.items():
            got = graphs.enumerate_admissible(range(1, size + 1))
            assert len(got) == count, size
            assert all(graphs.is_admissible(g) for g in got)

    def test_frozen_connected_counts(self):
        expected = {2: 2, 3: 8, 4: 56, 5: 552}
        for size, count in expected.items():
            got = graphs.enumerate_connected_admissible(range(1, size + 1))
            assert len(got) == count, size

    def test_connected_components_split(self):
        g = AdmissibleGraph.make((1, 2, 3, 4), [(1, 2)], [(3, 4)])
        comps = graphs.connected_components(g)
        assert sorted(c.vertices for c in comps) == [(1, 2), (3, 4)]
        assert graphs.is_connected(edge(1, 2, 2))
        assert not graphs.is_connected(g)


class TestWedge:
    def test_idempotent(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [(2, 3)])
        assert graphs.wedge(g, g) == g

    def test_merges_same_color_cliques(self):
        w = graphs.wedge(edge(1, 2, 2), edge(2, 3, 2))
        assert w == AdmissibleGraph.make((1, 2, 3), [(1, 2, 3)], [])

    def test_rejects_two_shared_vertices_across_colors(self):
        assert graphs.wedge(edge(1, 2, 2), edge(1, 2, 3)) is None

    def test_primes_are_exactly_the_single_edges(self):
        assert graphs.is_prime(edge(1, 2, 2))
        assert graphs.is_prime(edge(1, 2, 3))
        for size in (3, 4):
            family = graphs.enumerate_admissible(range(1, size + 1))
            assert not any(graphs.is_prime(g) for g in family)

    def test_grade_counts_wedge_factors(self):
        assert oracles.grade(edge(1, 2, 2)) == 1
        triple = AdmissibleGraph.make((1, 2, 3), [(1, 2, 3)], [])
        assert oracles.grade(triple) == 2


# ---------------------------------------------------------------------------
# X(G) and NSD
# ---------------------------------------------------------------------------


class TestTupleSets:
    def setup_method(self):
        self.params = riesz.make_params(4, q=2)
        self.blocks = self.params.blocks

    def test_single_edge_matches_manual_filter(self):
        g = edge(1, 2, 2)
        got = set(graphs.X_of_graph(g, self.blocks))
        manual = {
            (r, s)
            for r in self.blocks[0]
            for s in self.blocks[1]
            if r[1] == s[1]
        }
        assert got == manual

    def test_exact_pattern_is_subset(self):
        g = edge(1, 2, 2)
        at_least = set(graphs.X_of_graph(g, self.blocks))
        exact = set(oracles.exact_pattern_tuples(g, self.blocks))
        assert exact <= at_least
        for combo in at_least - exact:
            assert combo[0][2] == combo[1][2]  # the extra color-3 agreement

    def test_nsd_is_disjoint_union_of_single_edges(self):
        both = set(graphs.nsd_tuples((1, 2), self.blocks))
        x2 = set(graphs.X_of_graph(edge(1, 2, 2), self.blocks))
        x3 = set(graphs.X_of_graph(edge(1, 2, 3), self.blocks))
        assert both == x2 | x3
        # both coincidences at once would force equal first coordinates,
        # impossible across distinct blocks
        assert not (x2 & x3)

    def test_nsd_empty_vertex_set(self):
        assert graphs.nsd_tuples((), self.blocks) == []


# ---------------------------------------------------------------------------
# inclusion-exclusion and factorization
# ---------------------------------------------------------------------------


class TestInclusionExclusion:
    def test_two_vertex_coefficients_are_unit(self):
        family = graphs.enumerate_admissible((1, 2))
        coeffs = graphs.inclusion_exclusion_coefficients(family)
        assert sorted(coeffs.values()) == [1, 1]

    def test_identity_two_and_three_vertices(self):
        field = CoefficientField.random_signs(5, 3, 120)
        p = riesz.make_params(5, q=3)
        for size in (1, 2, 3):
            rep = graphs.inclusion_exclusion_check(
                tuple(range(1, size + 1)), field, p.blocks)
            assert rep["equal"], (size, rep)

    def test_empty_vertex_set(self):
        field = CoefficientField.random_signs(3, 3, 121)
        p = riesz.make_params(3, q=2)
        rep = graphs.inclusion_exclusion_check((), field, p.blocks)
        assert rep["equal"]

    def test_factorization_of_disjoint_union(self):
        field = CoefficientField.random_signs(5, 3, 122)
        p = riesz.make_params(5, q=4)
        g = AdmissibleGraph.make((1, 2, 3, 4), [(1, 2)], [(3, 4)])
        rep = graphs.factorization_check(g, field, p.blocks)
        assert rep["equal"]
        assert rep["components"] == 2

    def test_factorization_single_component_trivial(self):
        field = CoefficientField.random_signs(4, 3, 123)
        p = riesz.make_params(4, q=2)
        rep = graphs.factorization_check(edge(1, 2, 3), field, p.blocks)
        assert rep["equal"]
        assert rep["components"] == 1


class TestStreamedChecks:
    """Both checks fold their sides' slab streams: a broken identity is
    caught in some slab, and no grid of the full resolution is held."""

    def test_wrong_coefficient_caught(self, monkeypatch):
        real = graphs.inclusion_exclusion_coefficients

        def one_off(family):
            coeffs = real(family)
            coeffs[family[-1]] += 1
            return coeffs

        monkeypatch.setattr(graphs, "inclusion_exclusion_coefficients", one_off)
        field = CoefficientField.random_signs(5, 3, 124)
        p = riesz.make_params(5, q=3)
        assert not graphs.inclusion_exclusion_check((1, 2, 3), field,
                                                    p.blocks)["equal"]

    def test_component_counted_twice_caught(self, monkeypatch):
        real = graphs.connected_components
        monkeypatch.setattr(graphs, "connected_components",
                            lambda g: real(g) * 2)
        field = CoefficientField.random_signs(5, 3, 125)
        p = riesz.make_params(5, q=4)
        g = AdmissibleGraph.make((1, 2, 3, 4), [(1, 2)], [(3, 4)])
        assert not graphs.factorization_check(g, field, p.blocks)["equal"]

    @staticmethod
    def _run(check, n, seed):
        field = CoefficientField.random_signs(n, 3, seed)
        if check == "inclusion-exclusion":
            return graphs.inclusion_exclusion_check(
                (1, 2, 3), field, riesz.make_params(n, q=3).blocks)
        return graphs.factorization_check(
            AdmissibleGraph.make((1, 2, 3, 4), [(1, 2)], [(3, 4)]),
            field, riesz.make_params(n, q=4).blocks)

    @pytest.mark.parametrize("check", ["inclusion-exclusion", "factorization"])
    def test_mismatch_in_the_last_slab_caught(self, check, monkeypatch):
        # one cell of the left side's last slab off by one: every slab of
        # the 8 at n=6 is compared
        real, counts = coincidence.product_slabs, []

        def last_cell_off(*args, **kwargs):
            slabs = list(real(*args, **kwargs))
            if not counts:
                slabs[-1] = slabs[-1].copy()
                slabs[-1].flat[-1] += 1
            counts.append(len(slabs))
            return iter(slabs)

        monkeypatch.setattr(coincidence, "product_slabs", last_cell_off)
        assert not self._run(check, 6, 127)["equal"]
        assert set(counts) == {8}

    @pytest.mark.parametrize("check", ["inclusion-exclusion", "factorization"])
    def test_peak_below_one_grid(self, check):
        # at n=6 the shapes' grid has 2^21 cells, 16 MiB in int64; the
        # whole grids of either side took 36 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = self._run(check, 6, 126)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rep["equal"]
        assert peak <= 12 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# exponent recursion
# ---------------------------------------------------------------------------


class TestExponentRecursion:
    def test_two_vertex_classification(self):
        rep = graphs.exponent_recursion(edge(1, 2, 2))
        assert rep.v32 == (2,)
        assert rep.v12 == ()
        assert rep.unclassified == (1,)
        assert rep.exponent == Fraction(-1, 4)

    def test_six_vertex_worked_example(self):
        g = AdmissibleGraph.make(
            range(1, 7), [(1, 2, 3)], [(1, 4), (2, 5), (3, 6)])
        rep = graphs.exponent_recursion(g)
        assert len(rep.v32) == 3
        assert len(rep.v12) == 1
        assert rep.exponent == Fraction(-1, 6)

    def test_exponent_formula(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [(2, 3)])
        rep = graphs.exponent_recursion(g)
        n32, n12, total = len(rep.v32), len(rep.v12), len(g.vertices)
        assert rep.exponent == \
            (Fraction(3, 2) * n32 + Fraction(1, 2) * n12 - total) / total

    def test_worst_cases_by_size(self):
        expected = {2: Fraction(-1, 4), 3: Fraction(0), 4: Fraction(-1, 8)}
        for size, worst in expected.items():
            family = graphs.enumerate_connected_admissible(
                range(1, size + 1))
            got = max(graphs.exponent_recursion(g).exponent
                      for g in family)
            assert got == worst, size
