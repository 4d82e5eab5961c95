"""Admissible two-colored graphs: enumeration, wedge/prime structure, the
inclusion-exclusion identity with derived coefficients, the disjoint-union
factorization, and the recursive 3/2 / 1/2 vertex classification with its
exponent.  Graph vertices are block indices; the block lists themselves
are passed in as plain sequences of shapes.  The identities fold the
``coincidence.product_slabs`` streams of their sides slab by slab, so
they hold no grid.  Only ``verify`` and ``graphs`` load this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coincidence, grid, hyperbolic
from .coincidence import MAX_TUPLES
from .grid import BudgetExceededError
from .hyperbolic import CoefficientField, Shape

#: Vertex cap for graph enumeration.
GRAPH_VERTEX_CAP = 6


# ---------------------------------------------------------------------------
# admissible graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleGraph:
    """Two-colored coincidence pattern: per color, a family of disjoint
    cliques (size >= 2) on the vertex set."""

    vertices: tuple[int, ...]
    cliques2: tuple[tuple[int, ...], ...]
    cliques3: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, vertices, cliques2, cliques3) -> "AdmissibleGraph":
        verts = tuple(sorted(set(vertices)))
        c2 = tuple(sorted(tuple(sorted(set(q))) for q in cliques2))
        c3 = tuple(sorted(tuple(sorted(set(q))) for q in cliques3))
        return cls(verts, c2, c3)

    def cliques(self, color: int) -> tuple[tuple[int, ...], ...]:
        if color == 2:
            return self.cliques2
        if color == 3:
            return self.cliques3
        raise ValueError("color must be 2 or 3")

    def edges(self, color: int) -> frozenset[frozenset[int]]:
        return frozenset(
            frozenset(pair)
            for q in self.cliques(color)
            for pair in itertools.combinations(q, 2)
        )


def is_admissible(g: AdmissibleGraph) -> bool:
    """The three structural conditions: per color the cliques are disjoint
    subsets of the vertices of size >= 2; a color-2 and a color-3 clique
    share at most one vertex; every vertex lies in at least one clique."""
    vset = set(g.vertices)
    covered: set[int] = set()
    for color in (2, 3):
        seen: set[int] = set()
        for q in g.cliques(color):
            qset = set(q)
            if len(qset) < 2 or not qset <= vset or len(qset) != len(q):
                return False
            if qset & seen:
                return False
            seen |= qset
        covered |= seen
    for q2 in g.cliques2:
        for q3 in g.cliques3:
            if len(set(q2) & set(q3)) > 1:
                return False
    return covered == vset


def is_connected(g: AdmissibleGraph) -> bool:
    return len(connected_components(g)) <= 1


def connected_components(g: AdmissibleGraph) -> list[AdmissibleGraph]:
    remaining = set(g.vertices)
    adjacency: dict[int, set[int]] = {v: set() for v in g.vertices}
    for color in (2, 3):
        for q in g.cliques(color):
            for v, w in itertools.combinations(q, 2):
                adjacency[v].add(w)
                adjacency[w].add(v)
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        remaining -= seen
        comps.append(AdmissibleGraph.make(
            seen,
            [q for q in g.cliques2 if set(q) <= seen],
            [q for q in g.cliques3 if set(q) <= seen],
        ))
    return comps


def _partial_partitions_min2(items: tuple[int, ...]):
    """All families of disjoint blocks of size >= 2 drawn from items (not
    necessarily covering), blocks ordered by least element."""
    if not items:
        yield ()
        return
    x, rest = items[0], items[1:]
    for p in _partial_partitions_min2(rest):
        yield p
    for size in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            taken = set(combo)
            remaining = tuple(i for i in rest if i not in taken)
            block = (x, *combo)
            for p in _partial_partitions_min2(remaining):
                yield (block, *p)


def enumerate_admissible(vertices) -> list[AdmissibleGraph]:
    """Every admissible graph on exactly this vertex set (each vertex
    covered)."""
    verts = tuple(sorted(set(vertices)))
    if len(verts) > GRAPH_VERTEX_CAP:
        raise BudgetExceededError(
            f"graph enumeration capped at {GRAPH_VERTEX_CAP} vertices"
        )
    partitions = list(_partial_partitions_min2(verts))
    out = []
    for p2 in partitions:
        covered2 = {v for q in p2 for v in q}
        for p3 in partitions:
            g = AdmissibleGraph(verts, p2, p3)
            if covered2 | {v for q in p3 for v in q} != set(verts):
                continue
            if any(len(set(q2) & set(q3)) > 1 for q2 in p2 for q3 in p3):
                continue
            out.append(g)
    return out


def enumerate_connected_admissible(vertices) -> list[AdmissibleGraph]:
    return [g for g in enumerate_admissible(vertices) if is_connected(g)]


def wedge(g1: AdmissibleGraph, g2: AdmissibleGraph) -> AdmissibleGraph | None:
    """Smallest admissible graph containing both edge sets: per color, merge
    overlapping cliques until disjoint; undefined (None) when the closure
    violates admissibility."""
    verts = tuple(sorted(set(g1.vertices) | set(g2.vertices)))
    merged = {}
    for color in (2, 3):
        blocks = [set(q) for q in g1.cliques(color)] + [set(q) for q in g2.cliques(color)]
        changed = True
        while changed:
            changed = False
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    if blocks[i] & blocks[j]:
                        blocks[i] |= blocks[j]
                        del blocks[j]
                        changed = True
                        break
                if changed:
                    break
        merged[color] = blocks
    g = AdmissibleGraph.make(verts, merged[2], merged[3])
    return g if is_admissible(g) else None


def _subgraphs_edgewise(g: AdmissibleGraph) -> list[AdmissibleGraph]:
    """All admissible graphs (on any subset of g's vertices) whose edges are
    contained in g's edges, per color."""
    out = []
    e2, e3 = g.edges(2), g.edges(3)
    for verts in _nonempty_subsets(g.vertices):
        for h in enumerate_admissible(verts):
            if h.edges(2) <= e2 and h.edges(3) <= e3:
                out.append(h)
    return out


def _nonempty_subsets(items):
    items = tuple(items)
    for size in range(1, len(items) + 1):
        yield from itertools.combinations(items, size)


def is_prime(g: AdmissibleGraph) -> bool:
    """No decomposition g = wedge(g1, g2) with both factors different from g."""
    if not is_admissible(g):
        raise ValueError("graph is not admissible")
    candidates = [h for h in _subgraphs_edgewise(g) if h != g]
    for h1, h2 in itertools.combinations_with_replacement(candidates, 2):
        if wedge(h1, h2) == g:
            return False
    return True


# ---------------------------------------------------------------------------
# X(G), NSD, inclusion-exclusion, factorization
# ---------------------------------------------------------------------------


def X_of_graph(g: AdmissibleGraph, blocks, *,
               budget: int = MAX_TUPLES) -> list[tuple[Shape, ...]]:
    """Shape tuples (one per vertex, drawn from that vertex's block) whose
    coordinates satisfy at least the coincidences demanded by g's edges
    (color 2 pins coordinate 2, color 3 pins coordinate 3).  These at-least
    semantics are the ones the inclusion-exclusion identity is stated for.
    """
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    coincidence.check_budget(math.prod(len(blocks[v - 1]) for v in verts),
                             budget)
    constraints = []
    for color, coord in ((2, 1), (3, 2)):
        for q in g.cliques(color):
            chain = sorted(q)
            constraints.extend(
                (coord, index[v], index[w]) for v, w in zip(chain, chain[1:])
            )
    out = []
    for combo in itertools.product(*[blocks[v - 1] for v in verts]):
        if all(combo[i][c] == combo[j][c] for c, i, j in constraints):
            out.append(combo)
    return out


def nsd_tuples(vertices, blocks, *,
               budget: int = MAX_TUPLES) -> list[tuple[Shape, ...]]:
    """Tuples in which every component shares coordinate 2 or 3 with some
    other component (no component is coincidence-free; first coordinates
    cannot collide across distinct blocks)."""
    verts = sorted(set(vertices))
    if not verts:
        return []
    coincidence.check_budget(math.prod(len(blocks[v - 1]) for v in verts),
                             budget)
    out = []
    k = len(verts)
    for combo in itertools.product(*[blocks[v - 1] for v in verts]):
        ok = True
        for i in range(k):
            if not any(
                j != i and any(combo[i][c] == combo[j][c]
                               for c in range(1, len(combo[i])))
                for j in range(k)
            ):
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def inclusion_exclusion_coefficients(
        graphs: list[AdmissibleGraph]) -> dict[AdmissibleGraph, int]:
    """Coefficients c_G with sum over {covering G <= P} of c_G equal to 1
    for every covering admissible P: c_G = 1 - sum of c_H over proper
    edgewise subgraphs H in the family.  Derived, not copied: the ordering
    is by per-color edge-set inclusion and the exact identity test is the
    arbiter."""
    keyed = sorted(graphs, key=lambda g: len(g.edges(2)) + len(g.edges(3)))
    coeffs: dict[AdmissibleGraph, int] = {}
    for g in keyed:
        e2, e3 = g.edges(2), g.edges(3)
        below = sum(
            coeffs[h]
            for h in keyed
            if h != g and h in coeffs and h.edges(2) <= e2 and h.edges(3) <= e3
        )
        coeffs[g] = 1 - below
    return coeffs


def _slab_streams(sides, field: CoefficientField, resolution, budget: int):
    """The ``coincidence.product_slabs`` stream of each tuple list, all on
    ``resolution`` in slabs of one row count and on one workspace, so that
    they advance together; each list is checked against ``budget`` first."""
    for tuples in sides:
        coincidence.check_budget(len(tuples), budget)
    rows, workspace = hyperbolic.slab_rows(resolution), grid.Workspace()
    return [coincidence.product_slabs(tuples, field, resolution, rows,
                                      workspace) for tuples in sides]


def inclusion_exclusion_check(vertices, field: CoefficientField, blocks, *,
                              budget: int = MAX_TUPLES) -> dict:
    """Cellwise identity: Prod over the not-strongly-distinct tuples equals
    the signed sum over admissible graphs of Prod(X(G)).  Both sides fold
    slab by slab on the shapes' minimal grid (``_slab_streams``): each
    right-hand slab sums the X(G) slabs, each widened to int64 before its
    c_G multiplies it, so no grid is held."""
    verts = tuple(sorted(set(vertices)))
    if not verts:
        return {"vertices": verts, "graph_count": 0, "equal": True,
                "coefficients": []}
    graphs = enumerate_admissible(verts)
    coeffs = inclusion_exclusion_coefficients(graphs)
    shapes = {s for v in verts for s in blocks[v - 1]}
    resolution = hyperbolic.minimal_resolution(shapes, field.d)
    lhs, *terms = _slab_streams(
        [nsd_tuples(verts, blocks, budget=budget),
         *(X_of_graph(g, blocks, budget=budget) for g in graphs)],
        field, resolution, budget)

    def rhs(shape) -> np.ndarray:
        out = np.zeros(shape, np.int64)
        for g, stream in zip(graphs, terms):
            out += coeffs[g] * next(stream).astype(np.int64)
        return out

    return {
        "vertices": verts,
        "graph_count": len(graphs),
        "coefficients": [
            {"cliques2": g.cliques2, "cliques3": g.cliques3, "c": coeffs[g]}
            for g in graphs
        ],
        "equal": all(np.array_equal(left, rhs(left.shape)) for left in lhs),
    }


def factorization_check(g: AdmissibleGraph, field: CoefficientField,
                        blocks, *, budget: int = MAX_TUPLES) -> dict:
    """Prod(X(G)) of a disjoint union equals the product of the components'
    Prod(X(G_t)), cellwise exactly.  Both sides fold slab by slab on the
    shapes' minimal grid (``_slab_streams``)."""
    comps = connected_components(g)
    shapes = {s for v in g.vertices for s in blocks[v - 1]}
    resolution = hyperbolic.minimal_resolution(shapes, field.d)
    whole, *parts = _slab_streams(
        [X_of_graph(h, blocks, budget=budget) for h in (g, *comps)],
        field, resolution, budget)

    def product(shape) -> np.ndarray:
        # int64 from the start: a product of component sums outgrows each one
        out = np.ones(shape, np.int64)
        for stream in parts:
            out *= next(stream)
        return out

    return {
        "components": len(comps),
        "equal": all(np.array_equal(w, product(w.shape)) for w in whole),
    }


# ---------------------------------------------------------------------------
# exponent recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    graph: AdmissibleGraph
    v32: tuple[int, ...]
    v12: tuple[int, ...]
    determined: tuple[int, ...]
    unclassified: tuple[int, ...]
    exponent: Fraction
    steps: tuple[str, ...]


def exponent_recursion(g: AdmissibleGraph) -> ExponentReport:
    """Recursive vertex classification of a connected admissible graph.

    Working from the largest vertex index downward, a vertex none of whose
    cliques are fixed yet joins V_{3/2} and fixes all its cliques; a vertex
    touching a fixed clique but still owning an unfixed one joins V_{1/2}
    and fixes the rest.  A vertex is *determined* once at least two of its
    coordinates are pinned (coordinate 1 by membership in V_{3/2} or
    V_{1/2}; coordinate 2 or 3 by a fixed clique of that color), and
    determined vertices are skipped.  An undetermined vertex all of whose
    cliques are already fixed is terminal: the recursion has nothing left
    to fix through it, and it stays unclassified.  The exponent is
    [(3/2)|V_{3/2}| + (1/2)|V_{1/2}| - |V|] / |V|.
    """
    if not is_admissible(g):
        raise ValueError("graph is not admissible")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    cliques = [(2, q) for q in g.cliques2] + [(3, q) for q in g.cliques3]
    of_vertex = {v: [i for i, (_, q) in enumerate(cliques) if v in q]
                 for v in g.vertices}
    fixed: set[int] = set()
    v32: list[int] = []
    v12: list[int] = []
    steps: list[str] = []

    def pinned_coords(v: int) -> int:
        count = 1 if (v in v32 or v in v12) else 0
        for color in (2, 3):
            if any(i in fixed and cliques[i][0] == color for i in of_vertex[v]):
                count += 1
        return count

    while True:
        candidate = None
        for v in sorted(g.vertices, reverse=True):
            if pinned_coords(v) >= 2:
                continue
            touches_fixed = any(i in fixed for i in of_vertex[v])
            has_unfixed = any(i not in fixed for i in of_vertex[v])
            if not touches_fixed or has_unfixed:
                candidate = (v, touches_fixed)
                break
        if candidate is None:
            break
        v, touches_fixed = candidate
        if not touches_fixed:
            v32.append(v)
            steps.append(f"v{v} -> V_3/2, fixing cliques "
                         f"{[cliques[i][1] for i in of_vertex[v] if i not in fixed]}")
        else:
            v12.append(v)
            steps.append(f"v{v} -> V_1/2, fixing cliques "
                         f"{[cliques[i][1] for i in of_vertex[v] if i not in fixed]}")
        fixed.update(of_vertex[v])

    determined = tuple(v for v in g.vertices
                       if v not in v32 and v not in v12 and pinned_coords(v) >= 2)
    unclassified = tuple(v for v in g.vertices
                         if v not in v32 and v not in v12 and v not in determined)
    size = len(g.vertices)
    exponent = (Fraction(3, 2) * len(v32) + Fraction(1, 2) * len(v12) - size) \
        / size
    return ExponentReport(
        graph=g,
        v32=tuple(sorted(v32)),
        v12=tuple(sorted(v12)),
        determined=determined,
        unclassified=unclassified,
        exponent=exponent,
        steps=tuple(steps),
    )

