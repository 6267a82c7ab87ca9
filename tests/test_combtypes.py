import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from tropi.cones import (
    ORIGIN,
    ComplexError,
    ConeComplex,
    PLFunction,
    evaluate_pl,
    locate,
    minimal_containing_cone,
)
from tropi.combtypes import (
    CombinatorialType,
    DecoratedGraph,
    NumericalData,
    TypeProblem,
    _push_degree,
    check_gathmann,
    check_global_balancing,
    collect_sensitive_slopes,
    lift_numerical_data,
    pushforward_type,
    ray_coefficient,
    solve_balancing,
    validate_type,
)
from tropi.enumeration import DegreeCatalogue, enumerate_types
from tropi.linalg import is_zero, primitive, vec_dot
from reference_linalg import solve_rational_system
from tropi.subdivide import (
    Subdivision,
    compose,
    identity_subdivision,
    resolve_smooth,
    stellar,
    stellar_at_point,
)

from fixtures import E1, E2, deg, golden_graph, golden_lambda, golden_type, quadrant
from generators import (
    random_complex,
    random_cone,
    random_lambda,
    random_raw_type,
    random_smooth_fan,
    random_staircase_type,
    random_tree_edges,
)


def random_graph(rng, n_rays=1):
    """Seeded tree with shuffled edge order and orientation, plus legs."""
    names = [f"v{i}" for i in range(rng.randint(1, 9))]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in random_tree_edges(rng, names)]
    rng.shuffle(edges)
    rng.shuffle(names)
    labels = list(range(1, rng.randint(0, 5) + 1))
    rng.shuffle(labels)
    legs = [(rng.choice(names), j) for j in labels]
    degrees = {v: tuple(rng.randint(-2, 3) for _ in range(n_rays)) for v in names}
    return DecoratedGraph(names, edges, legs, degrees)


def frontier_walk(g, root):
    """The hand-written walk the graph layer replaced: pop the stack, then
    scan every edge for the ones at v."""
    seen, frontier, out = {root}, [root], []
    while frontier:
        v = frontier.pop()
        for e in [e for e in g.edges if v in e]:
            w = e[0] if e[1] == v else e[1]
            if w in seen:
                continue
            seen.add(w)
            out.append((v, e, w))
            frontier.append(w)
    return out


class TestGraph:
    def test_not_a_tree(self):
        with pytest.raises(TypeProblem):
            DecoratedGraph(
                ["a", "b"], [("a", "b"), ("b", "a")], [], {"a": (0,), "b": (0,)}
            )

    def test_disconnected(self):
        with pytest.raises(TypeProblem):
            DecoratedGraph(
                ["a", "b", "c", "d"],
                [("a", "b"), ("a", "b")],
                [],
                {v: (0,) for v in "abcd"},
            )

    def test_bad_labels(self):
        with pytest.raises(TypeProblem):
            DecoratedGraph(["a"], [], [("a", 2)], {"a": (0,)})

    def test_valence(self):
        g = golden_graph()
        assert g.valence("v3") == 2
        assert g.legs_at("v3") == [3]

    def test_walk_matches_frontier_loop(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng)
            for root in g.vertices:
                walk = list(g.walk(root))
                assert walk == frontier_walk(g, root)
                assert {w for _, _, w in walk} | {root} == set(g.vertices)

    def test_adjacency_matches_scan(self):
        rng = random.Random(12)
        for _ in range(60):
            g = random_graph(rng)
            for v in g.vertices:
                scan = [e for e in g.edges if v in e]
                assert g.incident_edges(v) == scan
                assert g.neighbors(v) == [b if a == v else a for a, b in scan]
                assert g.legs_at(v) == [j for w, j in g.legs if w == v]
                assert g.valence(v) == len(scan)

    def test_equality_ignores_adjacency(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng)
            same = DecoratedGraph(g.vertices, g.edges, g.legs, g.degrees)
            assert same == g
            copy = dataclasses.replace(g)
            assert copy == g
            assert all(copy.neighbors(v) == g.neighbors(v) for v in g.vertices)


class TestBalancing:
    def test_golden_solution(self):
        slopes = solve_balancing(golden_type())
        assert slopes[E1] == (1, 2)
        assert slopes[E2] == (2, 1)

    def test_single_vertex(self):
        q = quadrant()
        t = CombinatorialType(
            graph=DecoratedGraph(["v"], [], [("v", 1)], {"v": deg(q, **{str((1, 0)): 1})}),
            target=q,
            vertex_cones={"v": ORIGIN},
            edge_cones={},
            leg_cones={1: frozenset({q.rays.index((1, 0))})},
            leg_slopes={1: (1, 0)},
        )
        assert solve_balancing(t) == {}

    def test_root_invariance(self):
        t = golden_type()
        base = solve_balancing(t, root="v1")
        for root in ("v2", "v3"):
            assert solve_balancing(t, root=root) == base

    def test_global_balancing_violation(self):
        t = golden_type()
        bad = {**t.graph.degrees, "v3": (1, 0)}
        t2 = CombinatorialType(
            graph=DecoratedGraph(
                t.graph.vertices, t.graph.edges, t.graph.legs, bad
            ),
            target=t.target,
            vertex_cones=t.vertex_cones,
            edge_cones=t.edge_cones,
            leg_cones=t.leg_cones,
            leg_slopes=t.leg_slopes,
        )
        with pytest.raises(TypeProblem, match="direction"):
            solve_balancing(t2)

    def test_integral_on_non_unimodular_target(self):
        # fan coordinates of (1,1) over (1,0), (1,2) are (1/2, 1/2)
        target = ConeComplex(2, [(1, 0), (1, 2)], [{0, 1}])
        rays = target.rays
        pool = [(1, 1), (2, 1), (3, 1), (2, 3), (1, 0), (1, 2)]
        rng = random.Random(14)
        for _ in range(40):
            names = [f"v{i}" for i in range(rng.randint(1, 6))]
            edges = random_tree_edges(rng, names)
            slopes = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            if sum(s[1] for s in slopes) % 2:
                slopes.append((1, 1))
            legs = [(rng.choice(names), j + 1) for j in range(len(slopes))]
            # integral total degree; the split over the vertices is random
            half = sum(s[1] for s in slopes) // 2
            total = [sum(s[0] for s in slopes) - half, half]
            degrees = {v: [0, 0] for v in names}
            for i in range(2):
                for _ in range(total[i]):
                    degrees[rng.choice(names)][i] += 1
            g = DecoratedGraph(names, edges, legs, degrees)
            t = CombinatorialType(
                graph=g,
                target=target,
                vertex_cones={v: frozenset({0, 1}) for v in names},
                edge_cones={e: frozenset({0, 1}) for e in edges},
                leg_cones={j: frozenset({0, 1}) for _, j in legs},
                leg_slopes={j: slopes[j - 1] for _, j in legs},
            )
            t = t.with_slopes(solve_balancing(t))
            for m in t.edge_slopes.values():
                assert all(type(x) is int for x in m)
            for v in names:
                d = g.degrees[v]
                lhs = tuple(d[0] * rays[0][r] + d[1] * rays[1][r] for r in range(2))
                out = [t.leg_slopes[j] for j in g.legs_at(v)]
                out += [t.slope_from(v, e) for e in g.incident_edges(v)]
                assert lhs == tuple(sum(m[r] for m in out) for r in range(2))

    def test_matches_linear_system_oracle(self):
        # stack the per-vertex equations and solve generically per direction;
        # on the coordinate fan a slope's ray component is an ambient entry
        t = golden_type()
        slopes = solve_balancing(t)
        edges = list(t.graph.edges)
        for i, ray in enumerate(t.target.rays):
            coord = ray.index(1)
            rows, rhs = [], []
            for v in t.graph.vertices:
                row = [1 if e[0] == v else (-1 if e[1] == v else 0) for e in edges]
                rows.append(row)
                b = Fraction(t.graph.degrees[v][i])
                for j in t.graph.legs_at(v):
                    b -= ray_coefficient(t.target, i, t.leg_slopes[j])
                rhs.append(b)
            sol = solve_rational_system(rows, rhs)
            assert sol is not None
            for e, val in zip(edges, sol.vector):
                assert Fraction(slopes[e][coord]) == val


# -- the Fraction readers that the integer ones replaced, as references -------


def fan_coordinates(c, p):
    """Coefficient of every ray in p's fan coordinates, or None outside the
    support.  Rays off the minimal cone containing p get 0."""
    hit = locate(c, p)
    if hit is None:
        return None
    ids, nums, denom = hit
    out = [Fraction(0)] * len(c.rays)
    for i, x in zip(ids, nums):
        out[i] = Fraction(x, denom)
    return tuple(out)


def _edge_coefficients(t, e):
    """Coefficients of e's slope, oriented away from e[0], on the generators
    of its cone, keyed by ray id; None when the slope is off their span."""
    m = t.slope_from(e[0], e)
    cone = t.edge_cones[e]
    kern = t.target.kernel(cone)
    nums = kern.numerators(m)
    if nums is None:
        return None
    return {i: Fraction(x, kern.denom) for i, x in zip(sorted(cone), nums)}


def reference_check_global_balancing(target, lam):
    if len(lam.total_degree) != len(target.rays):
        raise TypeProblem("degree vector does not match the target rays")
    coords = [fan_coordinates(target, a) for a in lam.alphas]
    for i in range(len(target.rays)):
        if None in coords or sum(c[i] for c in coords) != lam.total_degree[i]:
            return i
    return None


def reference_check_gathmann(t):
    if t.edge_slopes is None:
        raise TypeProblem("edge slopes must be solved before this check")
    g = t.graph
    leg_coords = {j: fan_coordinates(t.target, m) for j, m in t.leg_slopes.items()}
    coefs = {}

    def coefficient(v, e, i):
        if e not in coefs:
            coefs[e] = _edge_coefficients(t, e)
        coef = coefs[e]
        if coef is None:
            return None
        c = coef.get(i, Fraction(0))
        return c if v == e[0] else -c

    for i in range(len(t.target.rays)):
        inside = {v for v in g.vertices if i in t.vertex_cones[v]}
        for v in (v for v in g.vertices if v not in inside):
            for e in g.incident_edges(v):
                c = coefficient(v, e, i)
                if c is None:
                    return False
                if c != 0:
                    other = e[0] if e[1] == v else e[1]
                    if other not in inside or c < 0:
                        return False
        seen = set()
        for start in [v for v in g.vertices if v in inside]:
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in g.neighbors(v):
                    if w in inside and w not in comp:
                        comp.add(w)
                        frontier.append(w)
            seen |= comp
            total = Fraction(0)
            for v in comp:
                total += t.graph.degrees[v][i]
                for j in g.legs_at(v):
                    if leg_coords[j] is None:
                        return False
                    total -= leg_coords[j][i]
                for e in g.incident_edges(v):
                    other = e[0] if e[1] == v else e[1]
                    if other in comp:
                        continue
                    c = coefficient(other, e, i)
                    if c is None:
                        return False
                    total += c
            if total != 0:
                return False
    return True


def reference_push_degree(sub, d):
    base, refined = sub.base, sub.refined
    out = [Fraction(0)] * len(base.rays)
    for rid, deg in enumerate(d):
        if deg == 0:
            continue
        coords = fan_coordinates(base, refined.rays[rid])
        if coords is None:
            raise TypeProblem("refined ray outside the base support")
        for i, c in enumerate(coords):
            out[i] += deg * c
    for x in out:
        if x.denominator != 1:
            raise TypeProblem("pushforward degree is not integral")
    return tuple(int(x) for x in out)


def reference_evaluate_pl(f, p):
    coords = fan_coordinates(f.complex, p)
    if coords is None:
        raise ComplexError(f"point {tuple(p)} outside the support")
    return sum((lam * v for lam, v in zip(coords, f.ray_values)), Fraction(0))


def golden_fan():
    """The golden refinement of the quadrant: five rays in the plane, so the
    rays are linearly dependent."""
    fan = quadrant()
    for point in [(1, 1), (2, 1), (1, 2)]:
        fan = stellar_at_point(fan, point).refined
    return fan


def _vertex_imbalance(t, v):
    """Degree minus leg contributions, in fan coordinates at the vertex."""
    out = [Fraction(d) for d in t.graph.degrees[v]]
    for j in t.graph.legs_at(v):
        coords = fan_coordinates(t.target, t.leg_slopes[j])
        if coords is None:
            raise TypeProblem(f"leg slope {j} lies outside the support")
        for i, c in enumerate(coords):
            out[i] -= c
    return out


def reference_solve_balancing(t, root=None):
    """The Fraction solver the integer one replaced: per-ray residuals in
    fan coordinates, summed leaf to root."""
    g = t.graph
    if root is None:
        root = g.vertices[0]
    rays, k_amb = t.target.rays, t.target.ambient_dim
    residual = {v: _vertex_imbalance(t, v) for v in g.vertices}
    out = {}
    for v, e, w in reversed(list(g.walk(root))):
        coords = residual[w]
        for i, c in enumerate(coords):
            residual[v][i] += c
        vec = [sum(c * r[k] for c, r in zip(coords, rays)) for k in range(k_amb)]
        sign = 1 if e[0] == w else -1
        out[e] = tuple(int(sign * x) for x in vec)
    for i, c in enumerate(residual[root]):
        if c != 0:
            raise TypeProblem(f"global balancing fails in ray direction {i}")
    return out


def balancing_outcome(solver, t, root=None):
    """The slopes as an ordered item list, or the TypeProblem message."""
    try:
        return list(solver(t, root).items())
    except TypeProblem as exc:
        return str(exc)


def drawn_type(rng, fan):
    """A tree on fan whose legs carry random_lambda's tangencies and whose
    vertices split the total degree at random (negative entries allowed).
    Edges come shuffled and in either orientation."""
    lam = random_lambda(rng, fan)
    names = [f"v{i}" for i in range(rng.randint(1, 7))]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in random_tree_edges(rng, names)]
    rng.shuffle(edges)
    rng.shuffle(names)
    legs = [(rng.choice(names), j) for j in range(1, lam.n + 1)]
    rng.shuffle(legs)
    degrees = {v: [rng.randint(-2, 2) for _ in fan.rays] for v in names[1:]}
    degrees[names[0]] = [
        total - sum(d[i] for d in degrees.values())
        for i, total in enumerate(lam.total_degree)
    ]
    return CombinatorialType(
        graph=DecoratedGraph(names, edges, legs, degrees),
        target=fan,
        vertex_cones=dict.fromkeys(names, ORIGIN),
        edge_cones=dict.fromkeys(edges, ORIGIN),
        leg_cones=dict.fromkeys(range(1, lam.n + 1), ORIGIN),
        leg_slopes=dict(enumerate(lam.alphas, start=1)),
    )


class TestIntegerBalancingAgainstReference:
    """The integer solver returns the Fraction solver's dict (keys, key
    order, values) or raises its TypeProblem message."""

    def assert_same(self, t, roots):
        for root in roots:
            got = balancing_outcome(solve_balancing, t, root)
            assert got == balancing_outcome(reference_solve_balancing, t, root)
            if not isinstance(got, str):
                assert all(type(x) is int for _, m in got for x in m)
        return got

    def test_seeded_types(self):
        """Drawn balanced trees; the same trees with one degree entry moved
        by one, and with one leg slope moved off the support; staircase and
        raw types.  On random 2D and 3D fans and on the golden fan, from
        the default root and three others."""
        rng = random.Random(31)
        outcomes = collections.Counter()

        def check(kind, t):
            roots = [None, *rng.sample(t.graph.vertices, min(3, len(t.graph.vertices)))]
            got = self.assert_same(t, roots)
            outcomes[kind, got.split(" in ")[0] if isinstance(got, str) else "solved"] += 1

        for n in range(90):
            fan = golden_fan() if n % 3 == 0 else random_complex(rng)
            t = drawn_type(rng, fan)
            check("drawn", t)
            v = rng.choice(t.graph.vertices)
            moved = list(t.graph.degrees[v])
            moved[rng.randrange(len(moved))] += rng.choice([-1, 1])
            degrees = {**t.graph.degrees, v: moved}
            g = DecoratedGraph(t.graph.vertices, t.graph.edges, t.graph.legs, degrees)
            check("moved", dataclasses.replace(t, graph=g))
            if t.leg_slopes:
                off = {**t.leg_slopes, rng.choice(sorted(t.leg_slopes)): (-1,) * fan.ambient_dim}
                check("off", dataclasses.replace(t, leg_slopes=off))
            check("raw", random_raw_type(rng, fan))
            smooth = random_smooth_fan(rng, rng.choice([2, 3]))
            check("staircase", random_staircase_type(rng, smooth, max_vertices=6))
        fails = "global balancing fails"
        assert outcomes["drawn", "solved"] == outcomes["staircase", "solved"] == 90
        assert outcomes["moved", fails] == 90
        assert sum(n for (kind, _), n in outcomes.items() if kind == "off") >= 60
        assert outcomes["raw", fails] >= 20

    def test_leg_slope_outside_the_support(self):
        """The first leg off the support, in vertex then leg order, is named,
        before any balancing failure."""
        q = quadrant()
        t = CombinatorialType(
            graph=DecoratedGraph(
                ["a", "b"], [("a", "b")], [("b", 2), ("a", 3), ("b", 1)],
                {"a": (5, 0), "b": (0, 0)},
            ),
            target=q,
            vertex_cones={"a": ORIGIN, "b": ORIGIN},
            edge_cones={("a", "b"): ORIGIN},
            leg_cones=dict.fromkeys([1, 2, 3], ORIGIN),
            leg_slopes={1: (-1, 0), 2: (0, -1), 3: (1, -1)},
        )
        assert self.assert_same(t, [None, "b"]) == "leg slope 3 lies outside the support"

    def test_ambient_sum_balances_but_a_ray_does_not(self):
        """On the golden fan the leg (1,1) has fan coordinate 1 on the ray
        (1,1); degree 1 on each of (1,0) and (0,1) balances it as an ambient
        vector but not ray by ray."""
        fan = golden_fan()
        d = [0] * len(fan.rays)
        d[fan.rays.index((1, 0))] = d[fan.rays.index((0, 1))] = 1
        t = CombinatorialType(
            graph=DecoratedGraph(
                ["v0", "v1"], [("v0", "v1")], [("v0", 1)],
                {"v0": (0,) * len(fan.rays), "v1": d},
            ),
            target=fan,
            vertex_cones={"v0": ORIGIN, "v1": ORIGIN},
            edge_cones={("v0", "v1"): ORIGIN},
            leg_cones={1: ORIGIN},
            leg_slopes={1: (1, 1)},
        )
        first = min(fan.rays.index((1, 0)), fan.rays.index((0, 1)))
        message = f"global balancing fails in ray direction {first}"
        assert self.assert_same(t, [None, "v1"]) == message


class TestValidate:
    def test_golden_valid(self):
        report = validate_type(golden_type(with_slopes=True))
        assert report.valid, report.failures()

    def test_support_violation(self):
        t = golden_type(with_slopes=True)
        q = t.target
        t.edge_cones[E1] = frozenset({q.rays.index((1, 0))})
        report = validate_type(t)
        names = {c.name for c in report.failures()}
        assert "slope-support" in names

    def test_antisymmetry_violation(self):
        t = golden_type(with_slopes=True)
        t.edge_slopes[(E1[1], E1[0])] = (1, 2)  # flipped without negating
        report = validate_type(t)
        assert any(c.name == "antisymmetry" for c in report.failures())

    def test_face_condition_violation(self):
        t = golden_type(with_slopes=True)
        q = t.target
        t.vertex_cones["v1"] = frozenset({q.rays.index((0, 1))})
        report = validate_type(t)
        assert any(c.name == "face-condition" for c in report.failures())

    def test_positivity_violation(self):
        t = golden_type(with_slopes=True)
        t.edge_slopes[E1] = (-1, 2)
        report = validate_type(t)
        assert any(c.name == "positivity" for c in report.failures())

    def test_leg_slope_negative_coordinate(self):
        t = golden_type(with_slopes=True)
        t.leg_slopes[3] = (-1, 4)  # in the span of the full cone, not in it
        report = validate_type(t)
        assert ("leg-slope-membership", "leg 3 slope outside its cone") in {
            (c.name, c.detail) for c in report.failures()
        }


class TestGathmann:
    def test_golden_passes(self):
        assert check_gathmann(golden_type(with_slopes=True)) is True

    def test_degree_perturbation_fails(self):
        t = golden_type(with_slopes=True)
        g = t.graph
        bumped = {**g.degrees, "v3": (1, 0)}
        t2 = CombinatorialType(
            graph=DecoratedGraph(g.vertices, g.edges, g.legs, bumped),
            target=t.target,
            vertex_cones=t.vertex_cones,
            edge_cones=t.edge_cones,
            leg_cones=t.leg_cones,
            leg_slopes=t.leg_slopes,
            edge_slopes=t.edge_slopes,
        )
        assert check_gathmann(t2) is False

    def test_unsolved_slopes(self):
        with pytest.raises(TypeProblem):
            check_gathmann(golden_type())

    def test_single_interior_vertex(self):
        q = quadrant()
        t = CombinatorialType(
            graph=DecoratedGraph(
                ["v"],
                [],
                [("v", 1), ("v", 2)],
                {"v": deg(q, **{str((1, 0)): 1, str((0, 1)): 1})},
            ),
            target=q,
            vertex_cones={"v": ORIGIN},
            edge_cones={},
            leg_cones={
                1: frozenset({q.rays.index((1, 0))}),
                2: frozenset({q.rays.index((0, 1))}),
            },
            leg_slopes={1: (1, 0), 2: (0, 1)},
            edge_slopes={},
        )
        assert check_gathmann(t) is True



def _raw_types():
    rng = random.Random(13)
    for _ in range(150):
        yield random_raw_type(rng, random_complex(rng))


class TestSignOnlyReaders:
    """The leg check of validate_type and collect_sensitive_slopes read the
    signs of kernel numerators; they agree with the coordinates that
    cone_coords gives (None off the span or with a negative coordinate)."""

    def test_leg_slope_membership(self):
        outside = 0
        for t in _raw_types():
            expected = ""
            for _, j in t.graph.legs:
                if t.target.cone_coords(t.leg_cones[j], t.leg_slopes[j]) is None:
                    expected = f"leg {j} slope outside its cone"
            (check,) = [
                c for c in validate_type(t).checks if c.name == "leg-slope-membership"
            ]
            assert (check.passed, check.detail) == (not expected, expected)
            outside += bool(expected)
        assert outside >= 20

    def test_collect_sensitive_slopes(self):
        found = 0
        for t in _raw_types():
            if t.edge_slopes is None:
                continue
            expected = set()
            for e in t.graph.edges:
                for v in e:
                    m = t.slope_from(v, e)
                    if is_zero(m):
                        continue
                    coords = t.target.cone_coords(t.edge_cones[e], m)
                    if coords is not None and any(c > 0 for c in coords):
                        expected |= {m, primitive(m)}
            assert collect_sensitive_slopes([t]) == expected
            found += bool(expected)
        assert found >= 10


class TestCollectSlopes:
    def test_golden(self):
        slopes = collect_sensitive_slopes([golden_type(with_slopes=True)])
        assert slopes == {(1, 2), (2, 1)}

    def test_dedup_across_types(self):
        t = golden_type(with_slopes=True)
        assert collect_sensitive_slopes([t, t]) == {(1, 2), (2, 1)}

    def test_mixed_sign_excluded(self):
        q = quadrant()
        full = frozenset(range(2))
        ray1 = frozenset({q.rays.index((1, 0))})
        t = CombinatorialType(
            graph=DecoratedGraph(
                ["a", "b"],
                [("a", "b")],
                [("a", 1), ("b", 2)],
                {"a": deg(q, **{str((1, 0)): 1}), "b": deg(q, **{str((0, 1)): 1})},
            ),
            target=q,
            vertex_cones={"a": ORIGIN, "b": ORIGIN},
            edge_cones={("a", "b"): full},
            leg_cones={1: ray1, 2: frozenset({q.rays.index((0, 1))})},
            leg_slopes={1: (1, 0), 2: (0, 1)},
        )
        slopes = solve_balancing(t)
        t = t.with_slopes(slopes)
        # slope is mixed-sign: (a->b) carries (-1, 1)
        assert collect_sensitive_slopes([t]) == set()


def bivalent_type():
    """The stellar subdivision of the quadrant at (1, 1), and a type on its
    refined fan whose middle vertex m is legless, bivalent and of degree 0."""
    s = stellar_at_point(quadrant(), (1, 1))
    r = s.refined
    mid = frozenset({r.rays.index((1, 1))})
    zero = tuple(0 for _ in r.rays)
    t = CombinatorialType(
        graph=DecoratedGraph(
            ["a", "m", "b"],
            [("a", "m"), ("m", "b")],
            [("a", 1), ("b", 2)],
            {"a": zero, "m": zero, "b": zero},
        ),
        target=r,
        vertex_cones={"a": ORIGIN, "m": mid, "b": mid},
        edge_cones={("a", "m"): mid, ("m", "b"): mid},
        leg_cones={1: mid, 2: mid},
        leg_slopes={1: (0, 0), 2: (0, 0)},
        edge_slopes={("a", "m"): (1, 1), ("m", "b"): (1, 1)},
    )
    return s, t


def off_fan_type(fan):
    """One vertex on the cone of the rays (1, 0) and (0, 1), which is not a
    cone of the given refinement of the quadrant."""
    cone = frozenset({fan.rays.index((1, 0)), fan.rays.index((0, 1))})
    assert not fan.has_cone(cone)
    return CombinatorialType(
        graph=DecoratedGraph(["a"], [], [], {"a": tuple(0 for _ in fan.rays)}),
        target=fan,
        vertex_cones={"a": cone},
        edge_cones={},
        leg_cones={},
        leg_slopes={},
        edge_slopes={},
    )


class TestPushforward:
    def test_identity(self):
        t = golden_type(with_slopes=True)
        s = identity_subdivision(t.target)
        out = pushforward_type(s, t)
        assert out.edge_slopes == t.edge_slopes
        assert out.vertex_cones == t.vertex_cones

    def test_cone_not_in_refined_fan(self):
        s = stellar(quadrant(), frozenset({0, 1}))
        with pytest.raises(TypeProblem, match=r"\[0, 1\] is not a cone"):
            pushforward_type(s, off_fan_type(s.refined))

    def test_bivalent_vertex_merged(self):
        s, t = bivalent_type()
        # degree bookkeeping is all zero, m is legless and bivalent
        out = pushforward_type(s, t)
        assert set(out.graph.vertices) == {"a", "b"}
        assert len(out.graph.edges) == 1
        e = out.graph.edges[0]
        assert out.slope_from("a", e) == (1, 1)

    def test_functoriality(self):
        t = golden_type(with_slopes=True)
        s1 = stellar_at_point(quadrant(), (1, 1))
        s2 = stellar_at_point(s1.refined, (1, 2))
        comp = compose(s1, s2)
        # build a simple type on the doubly refined fan and push both ways
        r = s2.refined
        zero = tuple(0 for _ in r.rays)
        full_ray = frozenset({r.rays.index((1, 0))})
        up = CombinatorialType(
            graph=DecoratedGraph(["a"], [], [("a", 1)], {"a": zero}),
            target=r,
            vertex_cones={"a": ORIGIN},
            edge_cones={},
            leg_cones={1: full_ray},
            leg_slopes={1: (0, 0)},
            edge_slopes={},
        )
        via_steps = pushforward_type(s1, pushforward_type(s2, up))
        direct = pushforward_type(comp, up)
        assert via_steps.vertex_cones == direct.vertex_cones
        assert via_steps.graph.degrees == direct.graph.degrees


class TestLift:
    def test_golden_lift(self):
        q = quadrant()
        s = stellar(q, frozenset(range(2)))
        lam = golden_lambda()
        lifted = lift_numerical_data(s, lam)
        r = s.refined
        by_ray = dict(zip(r.rays, lifted.total_degree))
        assert by_ray[(1, 1)] == 3
        assert by_ray[(1, 0)] == 1
        assert by_ray[(0, 1)] == 1

    def test_disjoint_case(self):
        q = quadrant()
        s = stellar(q, frozenset(range(2)))
        lam = NumericalData(2, [(2, 0), (0, 2)], deg(q, **{str((1, 0)): 2, str((0, 1)): 2}))
        lifted = lift_numerical_data(s, lam)
        by_ray = dict(zip(s.refined.rays, lifted.total_degree))
        assert by_ray[(1, 1)] == 0
        assert by_ray[(1, 0)] == 2 and by_ray[(0, 1)] == 2

    def test_zero_data(self):
        q = quadrant()
        s = stellar(q, frozenset(range(2)))
        lam = NumericalData(0, [], (0, 0))
        lifted = lift_numerical_data(s, lam)
        assert all(x == 0 for x in lifted.total_degree)

    def test_preserves_global_balancing(self):
        q = quadrant()
        s = stellar(q, frozenset(range(2)))
        lam = golden_lambda()
        assert check_global_balancing(q, lam) is None
        lifted = lift_numerical_data(s, lam)
        assert check_global_balancing(s.refined, lifted) is None

    def test_rejects_composite(self):
        s1 = stellar_at_point(quadrant(), (1, 1))
        s2 = stellar_at_point(s1.refined, (1, 2))
        comp = compose(s1, s2)
        with pytest.raises(TypeProblem):
            lift_numerical_data(comp, golden_lambda())


class TestGlobalBalancing:
    def test_golden(self):
        assert check_global_balancing(quadrant(), golden_lambda()) is None

    def test_violation_reported(self):
        q = quadrant()
        lam = NumericalData(1, [(1, 0)], deg(q, **{str((1, 0)): 2}))
        assert check_global_balancing(q, lam) is not None


def non_unimodular_fans():
    """Three fans whose maximal-cone kernels have denominators 4, 9 and 16,
    so lattice points can have fractional fan coordinates; the faces of the
    3D cone add denominators 5 and 6."""
    return [
        ConeComplex(2, [(0, 1), (1, 0), (1, 2)], [{0, 2}, {1, 2}]),
        ConeComplex(2, [(-1, 1), (1, 0), (1, 3)], [{0, 2}, {1, 2}]),
        ConeComplex(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [{0, 1, 2}]),
    ]


def outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (TypeProblem, ComplexError) as exc:
        return type(exc).__name__, str(exc)


def box_points(fan, lo=-1, hi=3):
    box = itertools.product(range(lo, hi + 1), repeat=fan.ambient_dim)
    return [p for p in box if any(p)]


def fractional(fan, p):
    """True iff p lies in the support with a fractional fan coordinate."""
    coords = fan_coordinates(fan, p)
    return coords is not None and any(c.denominator > 1 for c in coords)


def enumerated_types(rng, fan, n_lambdas):
    """Types that enumerate_types emits for seeded data on fan: tangencies
    from a small box, at least one with fractional fan coordinates, whose
    coordinates sum to integers."""
    support = [p for p in box_points(fan) if locate(fan, p)]
    assert any(fractional(fan, p) for p in support)
    for _ in range(n_lambdas):
        while True:
            alphas = [rng.choice(support) for _ in range(rng.randint(1, 3))]
            total = [sum(c) for c in zip(*(fan_coordinates(fan, a) for a in alphas))]
            if all(x.denominator == 1 for x in total) and any(
                fractional(fan, a) for a in alphas
            ):
                break
        total = [int(x) for x in total]
        atoms = {(0,) * len(total), tuple(total)}
        atoms |= {tuple(rng.randint(0, x) for x in total) for _ in range(2)}
        lam = NumericalData(len(alphas), alphas, total)
        yield from enumerate_types(fan, lam, DegreeCatalogue(sorted(atoms), 3))


class TestFractionalCoordinatesAgainstReference:
    """On fans with non-unimodular cones the integer readers give the values
    of the Fraction readers they replaced, or raise their errors."""

    def test_check_gathmann(self):
        rng = random.Random(71)
        results = collections.Counter()
        for fan in non_unimodular_fans():
            for t in enumerated_types(rng, fan, 2):
                # as emitted; one degree unit moved between two vertices and
                # re-solved; one vertex cone redrawn
                variants = [t]
                a, b = rng.choice(t.graph.vertices), rng.choice(t.graph.vertices)
                i = rng.randrange(len(fan.rays))
                degrees = {v: list(d) for v, d in t.graph.degrees.items()}
                degrees[a][i] += 1
                degrees[b][i] -= 1
                g = DecoratedGraph(t.graph.vertices, t.graph.edges, t.graph.legs, degrees)
                moved = dataclasses.replace(t, graph=g)
                variants.append(moved.with_slopes(solve_balancing(moved)))
                cones = {**t.vertex_cones, a: random_cone(rng, fan)}
                variants.append(dataclasses.replace(t, vertex_cones=cones))
                for u in variants:
                    got = outcome(check_gathmann, u)
                    assert got == outcome(reference_check_gathmann, u)
                    results["enumerated", got] += 1
                results["fractional edges"] += any(
                    c.denominator > 1
                    for e in t.graph.edges
                    for c in (_edge_coefficients(t, e) or {}).values()
                )
            for _ in range(300):
                t = random_raw_type(rng, fan)
                if t.edge_slopes is None:
                    k = fan.ambient_dim
                    t = t.with_slopes(
                        {e: tuple(rng.randint(-3, 3) for _ in range(k)) for e in t.graph.edges}
                    )
                got = outcome(check_gathmann, t)
                assert got == outcome(reference_check_gathmann, t)
                results["raw", got] += 1
                results["fractional legs"] += any(
                    fractional(fan, m) for m in t.leg_slopes.values()
                )
        assert results["enumerated", True] >= 1000
        assert results["enumerated", False] >= 300
        assert results["raw", True] >= 5 and results["raw", False] >= 500
        assert results["fractional legs"] >= 100
        assert results["fractional edges"] >= 100

    def test_check_global_balancing(self):
        rng = random.Random(72)
        results = collections.Counter()
        for fan in non_unimodular_fans():
            points = box_points(fan)
            for _ in range(300):
                alphas = [rng.choice(points) for _ in range(rng.randint(0, 4))]
                coords = [fan_coordinates(fan, a) for a in alphas]
                if None in coords:
                    total = [rng.randint(0, 3) for _ in fan.rays]
                else:  # the sums rounded down, one entry perhaps moved by one
                    total = [int(sum(c)) for c in zip(*coords)] or [0] * len(fan.rays)
                    total[rng.randrange(len(total))] += rng.choice([0, 0, 1, -1])
                lam = NumericalData(len(alphas), alphas, total)
                got = outcome(check_global_balancing, fan, lam)
                assert got == outcome(reference_check_global_balancing, fan, lam)
                results[got is None] += 1
            wrong_length = NumericalData(1, [(1,) * fan.ambient_dim], [0])
            assert outcome(check_global_balancing, fan, wrong_length) == outcome(
                reference_check_global_balancing, fan, wrong_length
            )
        assert results[True] >= 100 and results[False] >= 500

    def test_push_degree(self):
        rng = random.Random(73)
        results = collections.Counter()
        for fan in non_unimodular_fans():
            subs = [resolve_smooth(fan)]
            for p in rng.sample([p for p in box_points(fan) if fractional(fan, p)], 3):
                subs.append(stellar_at_point(fan, p))
            # a "refinement" with a ray outside the base support
            outside = ConeComplex(fan.ambient_dim, [(-1,) * fan.ambient_dim], [{0}])
            subs.append(Subdivision(fan, outside))
            for sub in subs:
                for _ in range(40):
                    d = [rng.randint(-2, 2) for _ in sub.refined.rays]
                    got = outcome(_push_degree, sub, d)
                    assert got == outcome(reference_push_degree, sub, d)
                    results[got[1] if isinstance(got[0], str) else "pushed"] += 1
        assert results["pushed"] >= 150
        assert results["pushforward degree is not integral"] >= 150
        assert results["refined ray outside the base support"] >= 50

    def test_evaluate_pl(self):
        rng = random.Random(74)
        outside = 0
        for fan in non_unimodular_fans():
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in fan.rays]
            f = PLFunction(fan, values)
            points = box_points(fan)
            points += [tuple(Fraction(x, 3) for x in p) for p in points[::5]]
            for p in points:
                got = outcome(evaluate_pl, f, p)
                assert got == outcome(reference_evaluate_pl, f, p)
                if isinstance(got, tuple):
                    outside += 1
                else:
                    assert type(got) is Fraction
        assert outside >= 50
