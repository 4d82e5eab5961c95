"""Colored coincidence graphs: enumeration, wedges, inclusion-exclusion,
factorization, and the exponent recursion."""

from fractions import Fraction

import pytest

from hyperhaar import coincidence, riesz
from hyperhaar.coincidence import AdmissibleGraph
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
        assert coincidence.is_admissible(edge(1, 2, 2))
        assert coincidence.is_admissible(edge(1, 2, 3))
        both = AdmissibleGraph.make((1, 2), [(1, 2)], [(1, 2)])
        assert not coincidence.is_admissible(both)

    def test_uncovered_vertex_inadmissible(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [])
        assert not coincidence.is_admissible(g)

    def test_overlapping_same_color_cliques_inadmissible(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2), (2, 3)], [])
        assert not coincidence.is_admissible(g)

    def test_cross_color_single_shared_vertex_allowed(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [(2, 3)])
        assert coincidence.is_admissible(g)

    def test_frozen_admissible_counts(self):
        expected = {1: 0, 2: 2, 3: 8, 4: 68}
        for size, count in expected.items():
            got = coincidence.enumerate_admissible(range(1, size + 1))
            assert len(got) == count, size
            assert all(coincidence.is_admissible(g) for g in got)

    def test_frozen_connected_counts(self):
        expected = {2: 2, 3: 8, 4: 56, 5: 552}
        for size, count in expected.items():
            got = coincidence.enumerate_connected_admissible(range(1, size + 1))
            assert len(got) == count, size

    def test_connected_components_split(self):
        g = AdmissibleGraph.make((1, 2, 3, 4), [(1, 2)], [(3, 4)])
        comps = coincidence.connected_components(g)
        assert sorted(c.vertices for c in comps) == [(1, 2), (3, 4)]
        assert coincidence.is_connected(edge(1, 2, 2))
        assert not coincidence.is_connected(g)


class TestWedge:
    def test_idempotent(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [(2, 3)])
        assert coincidence.wedge(g, g) == g

    def test_merges_same_color_cliques(self):
        w = coincidence.wedge(edge(1, 2, 2), edge(2, 3, 2))
        assert w == AdmissibleGraph.make((1, 2, 3), [(1, 2, 3)], [])

    def test_rejects_two_shared_vertices_across_colors(self):
        assert coincidence.wedge(edge(1, 2, 2), edge(1, 2, 3)) is None

    def test_primes_are_exactly_the_single_edges(self):
        assert coincidence.is_prime(edge(1, 2, 2))
        assert coincidence.is_prime(edge(1, 2, 3))
        for size in (3, 4):
            graphs = coincidence.enumerate_admissible(range(1, size + 1))
            assert not any(coincidence.is_prime(g) for g in graphs)

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
        got = set(coincidence.X_of_graph(g, self.blocks))
        manual = {
            (r, s)
            for r in self.blocks[0]
            for s in self.blocks[1]
            if r[1] == s[1]
        }
        assert got == manual

    def test_exact_pattern_is_subset(self):
        g = edge(1, 2, 2)
        at_least = set(coincidence.X_of_graph(g, self.blocks))
        exact = set(oracles.exact_pattern_tuples(g, self.blocks))
        assert exact <= at_least
        for combo in at_least - exact:
            assert combo[0][2] == combo[1][2]  # the extra color-3 agreement

    def test_nsd_is_disjoint_union_of_single_edges(self):
        both = set(coincidence.nsd_tuples((1, 2), self.blocks))
        x2 = set(coincidence.X_of_graph(edge(1, 2, 2), self.blocks))
        x3 = set(coincidence.X_of_graph(edge(1, 2, 3), self.blocks))
        assert both == x2 | x3
        # both coincidences at once would force equal first coordinates,
        # impossible across distinct blocks
        assert not (x2 & x3)

    def test_nsd_empty_vertex_set(self):
        assert coincidence.nsd_tuples((), self.blocks) == []


# ---------------------------------------------------------------------------
# inclusion-exclusion and factorization
# ---------------------------------------------------------------------------


class TestInclusionExclusion:
    def test_two_vertex_coefficients_are_unit(self):
        graphs = coincidence.enumerate_admissible((1, 2))
        coeffs = coincidence.inclusion_exclusion_coefficients(graphs)
        assert sorted(coeffs.values()) == [1, 1]

    def test_identity_two_and_three_vertices(self):
        field = CoefficientField.random_signs(5, 3, 120)
        p = riesz.make_params(5, q=3)
        for size in (1, 2, 3):
            rep = coincidence.inclusion_exclusion_check(
                tuple(range(1, size + 1)), field, p.blocks)
            assert rep["equal"], (size, rep)

    def test_empty_vertex_set(self):
        field = CoefficientField.random_signs(3, 3, 121)
        p = riesz.make_params(3, q=2)
        rep = coincidence.inclusion_exclusion_check((), field, p.blocks)
        assert rep["equal"]

    def test_factorization_of_disjoint_union(self):
        field = CoefficientField.random_signs(5, 3, 122)
        p = riesz.make_params(5, q=4)
        g = AdmissibleGraph.make((1, 2, 3, 4), [(1, 2)], [(3, 4)])
        rep = coincidence.factorization_check(g, field, p.blocks)
        assert rep["equal"]
        assert rep["components"] == 2

    def test_factorization_single_component_trivial(self):
        field = CoefficientField.random_signs(4, 3, 123)
        p = riesz.make_params(4, q=2)
        rep = coincidence.factorization_check(edge(1, 2, 3), field, p.blocks)
        assert rep["equal"]
        assert rep["components"] == 1


# ---------------------------------------------------------------------------
# exponent recursion
# ---------------------------------------------------------------------------


class TestExponentRecursion:
    def test_two_vertex_classification(self):
        rep = coincidence.exponent_recursion(edge(1, 2, 2))
        assert rep.v32 == (2,)
        assert rep.v12 == ()
        assert rep.unclassified == (1,)
        assert rep.exponent == Fraction(-1, 4)

    def test_six_vertex_worked_example(self):
        g = AdmissibleGraph.make(
            range(1, 7), [(1, 2, 3)], [(1, 4), (2, 5), (3, 6)])
        rep = coincidence.exponent_recursion(g)
        assert len(rep.v32) == 3
        assert len(rep.v12) == 1
        assert rep.exponent == Fraction(-1, 6)

    def test_exponent_formula(self):
        g = AdmissibleGraph.make((1, 2, 3), [(1, 2)], [(2, 3)])
        rep = coincidence.exponent_recursion(g)
        n32, n12, total = len(rep.v32), len(rep.v12), len(g.vertices)
        assert rep.exponent == \
            (Fraction(3, 2) * n32 + Fraction(1, 2) * n12 - total) / total

    def test_worst_cases_by_size(self):
        expected = {2: Fraction(-1, 4), 3: Fraction(0), 4: Fraction(-1, 8)}
        for size, worst in expected.items():
            graphs = coincidence.enumerate_connected_admissible(
                range(1, size + 1))
            got = max(coincidence.exponent_recursion(g).exponent
                      for g in graphs)
            assert got == worst, size
