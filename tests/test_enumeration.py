import dataclasses
import random
from itertools import product
from math import factorial

import pytest

from tropi.combtypes import (
    CombinatorialType,
    NumericalData,
    TypeProblem,
    check_gathmann,
    ray_coefficient,
    solve_balancing,
    validate_type,
)
from tropi import enumeration
from tropi.cones import ORIGIN, ComplexError
from tropi.enumeration import (
    MAX_VERTICES,
    DegreeCatalogue,
    _automorphisms,
    _prufer_trees,
    _tree_shapes,
    canonical_code,
    enumerate_types,
    sensitize_for_data,
)
from tropi.serialize import type_to_dict
from tropi.subdivide import identity_subdivision

import generators
from fixtures import deg, golden_lambda, quadrant


CAT = DegreeCatalogue(atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=3)


def worked_example():
    return enumerate_types(quadrant(), golden_lambda(), CAT)


def brute_force(target, lam, cat):
    """Reference enumeration: full cartesian product, filtered only by the
    public validity checks.  Slow but free of search-space pruning."""
    from tropi.cones import minimal_containing_cone
    from tropi.combtypes import DecoratedGraph
    from tropi.enumeration import _prufer_trees

    leg_cones = {
        j: minimal_containing_cone(target, a)
        for j, a in enumerate(lam.alphas, start=1)
    }
    if any(c is None for c in leg_cones.values()):
        return {}
    all_cones = sorted(target.cones(), key=lambda c: sorted(c))
    found = {}
    for v_count in range(1, cat.max_vertices + 1):
        names = [f"v{i}" for i in range(v_count)]
        for shape in _prufer_trees(v_count):
            edges = [(names[a], names[b]) for a, b in shape]
            for degs in product(cat.atoms, repeat=v_count):
                if tuple(sum(c) for c in zip(*degs)) != lam.total_degree:
                    continue
                for leg_assign in product(range(v_count), repeat=lam.n):
                    legs = [(names[w], j + 1) for j, w in enumerate(leg_assign)]
                    graph = DecoratedGraph(names, edges, legs, dict(zip(names, degs)))
                    base = CombinatorialType(
                        graph=graph,
                        target=target,
                        vertex_cones={v: ORIGIN for v in names},
                        edge_cones={e: ORIGIN for e in edges},
                        leg_cones=dict(leg_cones),
                        leg_slopes={j + 1: lam.alphas[j] for j in range(lam.n)},
                    )
                    try:
                        slopes = solve_balancing(base)
                    except TypeProblem:
                        continue
                    for assignment in product(
                        all_cones, repeat=v_count + len(edges)
                    ):
                        t = CombinatorialType(
                            graph=graph,
                            target=target,
                            vertex_cones=dict(zip(names, assignment)),
                            edge_cones=dict(zip(edges, assignment[v_count:])),
                            leg_cones=dict(leg_cones),
                            leg_slopes={
                                j + 1: lam.alphas[j] for j in range(lam.n)
                            },
                            edge_slopes=dict(slopes),
                        )
                        if not validate_type(t).valid:
                            continue
                        if not check_gathmann(t):
                            continue
                        found.setdefault(canonical_code(t), t)
    return found


def reference_enumerate(target, lam, cat):
    """The search loop as it was before the orbit search: every Prufer tree,
    every degree tuple and leg map, the full product of vertex cones, each
    edge's numerators precomputed over every cone.  Returns the serialized
    types."""
    from tropi.cones import minimal_containing_cone
    from tropi.combtypes import DecoratedGraph, check_global_balancing

    if len(lam.total_degree) != len(target.rays):
        raise TypeProblem("degree vector does not match the target rays")
    leg_cones = {}
    for j, alpha in enumerate(lam.alphas, start=1):
        cone = minimal_containing_cone(target, alpha)
        if cone is None:
            return []
        leg_cones[j] = cone
    if check_global_balancing(target, lam) is not None:
        raise TypeProblem("global balancing fails")
    leg_slopes = dict(enumerate(lam.alphas, start=1))
    all_cones = sorted(target.cones(), key=sorted)
    kernels = {c: target.kernel(c) for c in all_cones}
    atoms = [a for a in cat.atoms if len(a) == len(target.rays)]

    found = {}
    for v_count in range(1, cat.max_vertices + 1):
        names = [f"v{i}" for i in range(v_count)]
        for shape in _prufer_trees(v_count):
            edges = [(names[a], names[b]) for a, b in shape]
            for degs in product(atoms, repeat=v_count):
                if tuple(map(sum, zip(*degs))) != lam.total_degree:
                    continue
                for leg_assign in product(names, repeat=lam.n):
                    legs = [(w, j) for j, w in enumerate(leg_assign, start=1)]
                    graph = DecoratedGraph(names, edges, legs, dict(zip(names, degs)))
                    try:
                        slopes = solve_balancing(
                            CombinatorialType(
                                graph=graph,
                                target=target,
                                vertex_cones=dict.fromkeys(names, ORIGIN),
                                edge_cones=dict.fromkeys(edges, ORIGIN),
                                leg_cones=leg_cones,
                                leg_slopes=leg_slopes,
                            )
                        )
                    except TypeProblem:
                        continue
                    spans = [
                        {c: k.numerators(slopes[e]) for c, k in kernels.items()}
                        for e in edges
                    ]
                    vertex_options = [
                        [
                            c
                            for c in all_cones
                            if all(c <= leg_cones[j] for j in graph.legs_at(v))
                        ]
                        for v in names
                    ]
                    for vcones in product(*vertex_options):
                        vertex_cones = dict(zip(names, vcones))
                        edge_cones = {}
                        for e, span in zip(edges, spans):
                            su, sv = vertex_cones[e[0]], vertex_cones[e[1]]
                            c = su | sv
                            nums = span.get(c)
                            if nums is None or not all(
                                (i in su or x > 0) and (i in sv or x < 0)
                                for i, x in zip(sorted(c), nums)
                            ):
                                break
                            edge_cones[e] = c
                        else:
                            candidate = CombinatorialType(
                                graph=graph,
                                target=target,
                                vertex_cones=vertex_cones,
                                edge_cones=edge_cones,
                                leg_cones=leg_cones,
                                leg_slopes=leg_slopes,
                                edge_slopes=slopes,
                            )
                            valid = validate_type(candidate).valid
                            if valid and check_gathmann(candidate):
                                found.setdefault(canonical_code(candidate), candidate)
    return [type_to_dict(found[k]) for k in sorted(found)]


def seeded_draws():
    """Seeded fans and data, each with a drawn catalogue and with the
    catalogue {0, total, total//2, rest}, both at most 3 vertices: 12 draws,
    as (fan, data, catalogue) triples.

    Draws with more than 10 cones or 3 markings are passed over: the
    reference takes 1 to 3 s on each of those.  That limit is the
    reference's runtime, not a filter on the search's output.
    """
    rng = random.Random(8)
    drawn = 0
    while drawn < 12:
        fan = generators.random_complex(rng)
        lam = generators.random_lambda(rng, fan)
        cat = generators.random_catalogue(rng, len(fan.rays))
        if len(list(fan.cones())) > 10 or lam.n > 3:
            continue
        total = lam.total_degree
        half = tuple(x // 2 for x in total)
        rest = tuple(a - b for a, b in zip(total, half))
        yield fan, lam, DegreeCatalogue(cat.atoms, min(cat.max_vertices, 3))
        yield fan, lam, DegreeCatalogue([(0,) * len(total), total, half, rest], 3)
        drawn += 1


def stabiliser_draws():
    """Seeded fans where one tangency repeats and the catalogue holds the
    zero atom and halves of the total, at most 3 vertices: 8 draws.  Equal
    atoms sit on symmetric vertices, so decorations have non-trivial
    stabilisers and the search emits candidates that repeat a code.

    Fans with more than 8 cones are passed over, for the reference's
    runtime.
    """
    rng = random.Random(12)
    drawn = 0
    while drawn < 8:
        fan = generators.random_complex(rng)
        lam = generators.random_lambda(rng, fan)
        if len(list(fan.cones())) > 8 or lam.n == 0:
            continue
        n = rng.randint(1, 2)
        alpha = lam.alphas[0]
        coords = [ray_coefficient(fan, i, alpha) for i in range(len(fan.rays))]
        lam = NumericalData(n, [alpha] * n, [int(c) * n for c in coords])
        total = lam.total_degree
        half = tuple(x // 2 for x in total)
        rest = tuple(a - b for a, b in zip(total, half))
        yield fan, lam, DegreeCatalogue([(0,) * len(total), half, rest, total], 3)
        drawn += 1


class TestWorkedExample:
    def test_nonempty_and_deduplicated(self):
        types = worked_example()
        assert types
        codes = [canonical_code(t) for t in types]
        assert len(codes) == len(set(codes))

    def test_deterministic(self):
        a = [canonical_code(t) for t in worked_example()]
        b = [canonical_code(t) for t in worked_example()]
        assert a == b

    def test_output_sorted_by_code(self):
        codes = [canonical_code(t) for t in worked_example()]
        assert codes == sorted(codes)

    def test_star_type_present(self):
        """The three-vertex star with slopes (1,2) and (2,1) toward the
        center, center in the full cone, leaves at the origin."""
        full = frozenset(range(2))
        hits = 0
        for t in worked_example():
            g = t.graph
            if len(g.vertices) != 3 or len(g.edges) != 2:
                continue
            centers = [v for v in g.vertices if g.valence(v) == 2]
            if not centers:
                continue
            (c,) = centers
            if t.vertex_cones[c] != full:
                continue
            leaves = [v for v in g.vertices if v != c]
            if any(t.vertex_cones[v] != ORIGIN for v in leaves):
                continue
            toward = sorted(
                t.slope_from(v, e)
                for e in g.edges
                for v in e
                if v != c
            )
            if toward == [(1, 2), (2, 1)]:
                hits += 1
        assert hits == 1

    def test_every_result_is_valid(self):
        for t in worked_example():
            assert validate_type(t).valid
            assert check_gathmann(t)

    def test_matches_brute_force_two_vertices(self):
        """Same types, same representatives, same order: the brute force
        tries cone assignments in lexicographic order, so it keeps the same
        first representative of every canonical code."""
        cat = DegreeCatalogue(atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=2)
        fast = enumerate_types(quadrant(), golden_lambda(), cat)
        slow = brute_force(quadrant(), golden_lambda(), cat)
        assert [type_to_dict(t) for t in fast] == [
            type_to_dict(slow[k]) for k in sorted(slow)
        ]


class TestRandomFansAgainstBruteForce:
    def test_two_vertices(self):
        """Seeded fans, data and catalogues {0, total, total//2, rest}.

        Only draws with at most 8 cones and 3 markings are compared: the
        brute force tries every cone for every vertex and edge, and bigger
        draws take it 3 to 25 s each.  That limit is the oracle's runtime,
        not a filter on the enumerator's output.
        """
        rng = random.Random(3)
        compared = 0
        while compared < 6:
            fan = generators.random_complex(rng)
            lam = generators.random_lambda(rng, fan)
            if len(list(fan.cones())) > 8 or lam.n > 3:
                continue
            total = lam.total_degree
            half = tuple(x // 2 for x in total)
            rest = tuple(a - b for a, b in zip(total, half))
            cat = DegreeCatalogue([(0,) * len(total), total, half, rest], 2)
            fast = enumerate_types(fan, lam, cat)
            slow = brute_force(fan, lam, cat)
            assert [type_to_dict(t) for t in fast] == [
                type_to_dict(slow[k]) for k in sorted(slow)
            ]
            assert fast  # every comparison has something to compare
            compared += 1


class TestOrbitSearchAgainstReference:
    """Same types, representatives, vertex names, edge orientations and order
    as the search loop it replaced."""

    @pytest.mark.parametrize("max_vertices", [1, 2, 3, 4])
    def test_golden(self, max_vertices):
        cat = DegreeCatalogue(atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=max_vertices)
        fast = enumerate_types(quadrant(), golden_lambda(), cat)
        assert [type_to_dict(t) for t in fast] == reference_enumerate(
            quadrant(), golden_lambda(), cat
        )

    def test_seeded_random_data(self):
        """The draws of ``seeded_draws``."""
        nonempty = 0
        for fan, lam, cat in seeded_draws():
            fast = [type_to_dict(t) for t in enumerate_types(fan, lam, cat)]
            assert fast == reference_enumerate(fan, lam, cat)
            nonempty += bool(fast)
        assert nonempty >= 12

    def test_nontrivial_stabilisers(self, monkeypatch):
        """The draws of ``stabiliser_draws``: the search emits candidates
        that repeat a code."""
        emitted = []
        monkeypatch.setattr(
            enumeration,
            "canonical_code",
            lambda t, code=canonical_code: emitted.append(1) or code(t),
        )
        repeats = 0
        for fan, lam, cat in stabiliser_draws():
            emitted.clear()
            fast = [type_to_dict(t) for t in enumerate_types(fan, lam, cat)]
            assert fast == reference_enumerate(fan, lam, cat)
            assert fast
            repeats += len(emitted) - len(fast)
        assert repeats > 0


class TestTreeShapes:
    @pytest.mark.parametrize("n", range(1, MAX_VERTICES + 1))
    def test_first_prufer_tree_of_each_shape(self, n):
        """networkx sorts the Prufer trees into isomorphism classes."""
        nx = pytest.importorskip("networkx")

        def graph(tree):
            g = nx.Graph(list(tree))
            g.add_nodes_from(range(n))
            return g

        firsts, graphs = [], []
        for tree in _prufer_trees(n):
            g = graph(tree)
            if not any(nx.is_isomorphic(g, h) for h in graphs):
                firsts.append(tree)
                graphs.append(g)
        expected = [1, 1, 1, 2, 3, 6][n - 1]
        assert len(list(nx.nonisomorphic_trees(n))) == expected
        assert _tree_shapes(n) == firsts
        assert len(firsts) == expected

    @pytest.mark.parametrize("n", range(3, MAX_VERTICES + 1))
    def test_automorphism_counts(self, n):
        path = tuple((i, i + 1) for i in range(n - 1))
        star = tuple((0, i) for i in range(1, n))
        assert len(_automorphisms(n, path)) == 2
        assert len(_automorphisms(n, star)) == factorial(n - 1)
        assert tuple(range(n)) in _automorphisms(n, path)


class TestEmittedSlopes:
    """Every emitted type carries solve_balancing's slopes, in its key order,
    and passes validate_type."""

    def assert_solved(self, types):
        for t in types:
            solved = solve_balancing(dataclasses.replace(t, edge_slopes=None))
            assert list(solved.items()) == list(t.edge_slopes.items())
            assert validate_type(t).valid

    @pytest.mark.parametrize("max_vertices", [3, 4])
    def test_golden(self, max_vertices):
        cat = DegreeCatalogue(atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=max_vertices)
        types = enumerate_types(quadrant(), golden_lambda(), cat)
        assert types
        self.assert_solved(types)

    def test_seeded_random_data(self):
        emitted = 0
        for fan, lam, cat in seeded_draws():
            types = enumerate_types(fan, lam, cat)
            self.assert_solved(types)
            emitted += len(types)
        assert emitted >= 100


class TestEveryCandidateIsValid:
    """The search runs no ``validate_type``: every candidate it hands to
    ``check_gathmann``, kept or not, is valid by construction."""

    @pytest.fixture
    def candidates(self, monkeypatch):
        seen = []

        def checked(t, gathmann=check_gathmann):
            assert validate_type(t).valid, validate_type(t).failures()
            seen.append(gathmann(t))
            return seen[-1]

        monkeypatch.setattr(enumeration, "check_gathmann", checked)
        return seen

    def test_golden(self, candidates):
        cat = DegreeCatalogue(atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=4)
        assert len(enumerate_types(quadrant(), golden_lambda(), cat)) == 172
        assert len(candidates) >= 172

    def test_seeded_random_data(self, candidates):
        emitted = sum(len(enumerate_types(*draw)) for draw in seeded_draws())
        assert len(candidates) > emitted >= 100

    def test_nontrivial_stabilisers(self, candidates):
        assert sum(len(enumerate_types(*draw)) for draw in stabiliser_draws())
        assert not all(candidates)  # check_gathmann rejects some of them

    def test_repeated_markings(self, candidates):
        """Markings (1,0), (0,1) three times each on the quadrant."""
        q = quadrant()
        lam = NumericalData(
            6, [(1, 0), (0, 1)] * 3, deg(q, **{str((1, 0)): 3, str((0, 1)): 3})
        )
        cat = DegreeCatalogue(atoms=[(0, 0), (1, 1), (2, 2)], max_vertices=3)
        types = enumerate_types(q, lam, cat)
        assert len(candidates) >= len(types) > 0


class TestEdgeCases:
    def test_single_vertex_catalogue(self):
        q = quadrant()
        lam = NumericalData(
            1, [(1, 0)], deg(q, **{str((1, 0)): 1})
        )
        cat = DegreeCatalogue(atoms=[lam.total_degree], max_vertices=1)
        types = enumerate_types(q, lam, cat)
        assert types
        for t in types:
            assert len(t.graph.vertices) == 1

    def test_unbalanced_data_raises(self):
        q = quadrant()
        lam = NumericalData(1, [(1, 0)], deg(q, **{str((1, 0)): 2}))
        with pytest.raises(TypeProblem, match="direction"):
            enumerate_types(q, lam, CAT)

    def test_tangency_outside_support(self):
        q = quadrant()
        lam = NumericalData(1, [(-1, 0)], deg(q))
        assert enumerate_types(q, lam, CAT) == []

    @pytest.mark.parametrize("length", [1, 3])
    def test_total_degree_of_wrong_length(self, length):
        lam = NumericalData(1, [(1, 0)], (1,) * length)
        with pytest.raises(TypeProblem, match="degree vector"):
            enumerate_types(quadrant(), lam, CAT)

    def test_bad_catalogue(self):
        with pytest.raises(TypeProblem):
            DegreeCatalogue(atoms=[], max_vertices=1)
        with pytest.raises(TypeProblem):
            DegreeCatalogue(atoms=[(0, 0)], max_vertices=0)
        assert DegreeCatalogue(atoms=[(0, 0)], max_vertices=MAX_VERTICES)
        with pytest.raises(TypeProblem, match="max_vertices"):
            DegreeCatalogue(atoms=[(0, 0)], max_vertices=MAX_VERTICES + 1)


class TestSensitizeForData:
    def test_golden_ray_set(self):
        sub = sensitize_for_data(quadrant(), golden_lambda(), CAT)
        assert set(sub.refined.rays) == {
            (1, 0),
            (2, 1),
            (1, 1),
            (1, 2),
            (0, 1),
        }

    def test_missing_slope_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            enumeration, "sensitize", lambda target, slopes: identity_subdivision(target)
        )
        with pytest.raises(ComplexError):
            sensitize_for_data(quadrant(), golden_lambda(), CAT)

    def test_idempotent_on_ray_set(self):
        sub = sensitize_for_data(quadrant(), golden_lambda(), CAT)
        again = sensitize_for_data(quadrant(), golden_lambda(), CAT)
        assert sub.refined == again.refined
