import random
from fractions import Fraction

import pytest

from tropi.cones import ORIGIN
from tropi.combtypes import CombinatorialType, DecoratedGraph, TypeProblem, solve_balancing
from tropi.feasibility import LinearSystem
from tropi.smoothing import (
    Realization,
    _path_slopes,
    _realization_from_witness,
    build_smoothing_system,
    check_sensitivity_consequences,
    smooth_construct,
    smoothable_lp,
    smoothable_simplex,
    verify_realization,
)
from tropi.subdivide import sensitize

from fixtures import E1, E2, golden_type, octant, quadrant
from generators import (
    random_complex,
    random_raw_type,
    random_smooth_fan,
    random_staircase_type,
)
from test_feasibility import reference_fm


def sensitized():
    return sensitize(quadrant(), [(1, 2), (2, 1)]).refined


def ray_type():
    """Origin vertex joined to a vertex on the slope ray of the refined fan."""
    r = sensitized()
    ray = frozenset({r.rays.index((1, 2))})
    ray_e1 = frozenset({r.rays.index((1, 0))})
    d_u = tuple(1 if v in [(1, 0), (1, 2)] else 0 for v in r.rays)
    d_w = tuple(1 if v == (1, 2) else 0 for v in r.rays)
    return CombinatorialType(
        graph=DecoratedGraph(
            ["u", "w"],
            [("u", "w")],
            [("u", 1), ("w", 2)],
            {"u": d_u, "w": d_w},
        ),
        target=r,
        vertex_cones={"u": ORIGIN, "w": ray},
        edge_cones={("u", "w"): ray},
        leg_cones={1: ray_e1, 2: ray},
        leg_slopes={1: (1, 0), 2: (2, 4)},
    )


def descending_type():
    """Interior vertex stepping down to a facet: forces length mu0/a0."""
    q = quadrant()
    full = frozenset(range(2))
    facet = frozenset({q.rays.index((0, 1))})
    zero = (0, 0)
    return CombinatorialType(
        graph=DecoratedGraph(
            ["v1", "v2"], [("v1", "v2")], [], {"v1": zero, "v2": zero}
        ),
        target=q,
        vertex_cones={"v1": full, "v2": facet},
        edge_cones={("v1", "v2"): full},
        leg_cones={},
        leg_slopes={},
        edge_slopes={("v1", "v2"): (-1, 1)},
    )


def broken_face_type():
    """Edge cone {0, 2} of the octant whose vertex u sits on ray 1 instead."""
    zero = (0, 0, 0)
    return CombinatorialType(
        graph=DecoratedGraph(["u", "w"], [("u", "w")], [], {"u": zero, "w": zero}),
        target=octant(),
        vertex_cones={"u": frozenset({1}), "w": frozenset({0, 2})},
        edge_cones={("u", "w"): frozenset({0, 2})},
        leg_cones={},
        leg_slopes={},
        edge_slopes={("u", "w"): (1, 0, 1)},
    )


class TestSensitivity:
    def test_golden_fails_both_ways(self):
        report = check_sensitivity_consequences(golden_type(with_slopes=True))
        verdict = report.edges[E1]
        assert not verdict.mixed_sign
        assert not verdict.flags["v1"].small_jumping
        assert not report.passed

    def test_ray_type_passes(self):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        assert t.edge_slopes[("u", "w")] == (1, 2)
        assert check_sensitivity_consequences(t).passed

    def test_interior_type_vacuous(self):
        q = quadrant()
        t = CombinatorialType(
            graph=DecoratedGraph(["v"], [], [], {"v": (0, 0)}),
            target=q,
            vertex_cones={"v": ORIGIN},
            edge_cones={},
            leg_cones={},
            leg_slopes={},
            edge_slopes={},
        )
        assert check_sensitivity_consequences(t).passed

    def test_unsolved_error(self):
        with pytest.raises(TypeProblem):
            check_sensitivity_consequences(golden_type())

    def test_vertex_cone_not_a_face(self):
        with pytest.raises(TypeProblem, match="not a face"):
            check_sensitivity_consequences(broken_face_type())


class TestSmoothableLP:
    def test_golden_infeasible(self):
        assert smoothable_lp(golden_type(with_slopes=True)) is None

    def test_single_vertex_at_origin(self):
        q = quadrant()
        t = CombinatorialType(
            graph=DecoratedGraph(["v"], [], [], {"v": (0, 0)}),
            target=q,
            vertex_cones={"v": ORIGIN},
            edge_cones={},
            leg_cones={},
            leg_slopes={},
            edge_slopes={},
        )
        r = smoothable_lp(t)
        assert r is not None
        assert r.vertex_positions["v"] == (0, 0)

    def test_two_vertex_feasible(self):
        q = quadrant()
        ray1 = frozenset({q.rays.index((1, 0))})
        t = CombinatorialType(
            graph=DecoratedGraph(
                ["a", "b"], [("a", "b")], [], {"a": (0, 0), "b": (0, 0)}
            ),
            target=q,
            vertex_cones={"a": ORIGIN, "b": ray1},
            edge_cones={("a", "b"): ray1},
            leg_cones={},
            leg_slopes={},
            edge_slopes={("a", "b"): (1, 0)},
        )
        r = smoothable_lp(t)
        assert r is not None
        assert verify_realization(t, r).valid

    def test_witness_verifies(self):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        r = smoothable_lp(t)
        assert r is not None
        assert verify_realization(t, r).valid

    def test_simplex_agrees(self):
        for t in [
            golden_type(with_slopes=True),
            ray_type().with_slopes(solve_balancing(ray_type())),
            descending_type(),
        ]:
            assert (smoothable_lp(t) is not None) == smoothable_simplex(t)


def _fraction_system(t):
    """(n, eqs, ineqs) of the smoothing system as it was built over
    Fractions: barycentric functionals, each strict inequality as >= 1."""
    g = t.graph
    k = t.target.ambient_dim
    edge_index = {e: i for i, e in enumerate(g.edges)}
    n = k + len(g.edges)
    paths = _path_slopes(t, g.vertices[0])

    def position_row(functional, path):
        row = [Fraction(0)] * n
        for r in range(k):
            row[r] = Fraction(functional[r])
        for e, sign in path.items():
            m = t.slope_from(e[0], e) if sign == 1 else t.slope_from(e[1], e)
            val = sum(Fraction(functional[r]) * m[r] for r in range(k))
            row[k + edge_index[e]] += val
        return row

    eqs, ineqs = [], []
    for e in g.edges:
        row = [Fraction(0)] * n
        row[k + edge_index[e]] = Fraction(1)
        ineqs.append((row, 1))
    for v in g.vertices:
        kern = t.target.kernel(t.vertex_cones[v])
        eqs += [(position_row(f, paths[v]), 0) for f in kern.eqs]
        ineqs += [(position_row(f, paths[v]), 1) for f in kern.functionals()]
    for a, b in g.edges:
        for f in t.target.kernel(t.edge_cones[(a, b)]).functionals():
            row_a, row_b = position_row(f, paths[a]), position_row(f, paths[b])
            ineqs.append(([x + y for x, y in zip(row_a, row_b)], 1))
    return n, eqs, ineqs


class TestIntegerSystem:
    def _types(self):
        yield golden_type(with_slopes=True)
        yield ray_type().with_slopes(solve_balancing(ray_type()))
        yield descending_type()
        rng = random.Random(31)
        for _ in range(60):
            yield random_staircase_type(rng, random_smooth_fan(rng, rng.choice([2, 3])))
        # arbitrary decorations: mostly infeasible, some with a leg failing
        for _ in range(300):
            t = random_raw_type(rng, random_complex(rng))
            if t.edge_slopes is not None:
                yield t

    def test_matches_fraction_reference(self):
        """smoothable_lp gives the realization of the Fraction solver run
        on the Fraction rows, or None with it."""
        fractional = infeasible = 0
        for t in self._types():
            built = build_smoothing_system(t)
            if built is None:
                assert smoothable_lp(t) is None
                continue
            sys, edge_index, root = built
            assert all(type(v) is int for c, r in sys.eqs + sys.ineqs for v in (*c, r))
            n, eqs, ineqs = _fraction_system(t)
            fractional += any(v.denominator > 1 for c, _ in ineqs for v in c)
            # the same rows, each scaled to coprime integers
            scaled = LinearSystem(n)
            for c, r in eqs:
                scaled.add_eq(c, r)
            for c, r in ineqs:
                scaled.add_ge(c, r)
            assert (sys.eqs, sys.ineqs) == (scaled.eqs, scaled.ineqs)
            witness = reference_fm(n, eqs, ineqs)
            infeasible += witness is None
            expected = (
                None if witness is None
                else _realization_from_witness(t, witness, edge_index, root)
            )
            assert smoothable_lp(t) == expected
        assert fractional >= 20 and infeasible >= 20


class TestSmoothConstruct:
    def test_descending_formula(self):
        t = descending_type()
        r = smooth_construct(t)
        assert r.vertex_positions["v1"] == (1, 1)
        assert r.edge_lengths[("v1", "v2")] == 1
        assert r.vertex_positions["v2"] == (0, 2)
        assert verify_realization(t, r).valid

    def test_single_vertex(self):
        q = quadrant()
        full = frozenset(range(2))
        t = CombinatorialType(
            graph=DecoratedGraph(["v"], [], [], {"v": (0, 0)}),
            target=q,
            vertex_cones={"v": full},
            edge_cones={},
            leg_cones={},
            leg_slopes={},
            edge_slopes={},
        )
        r = smooth_construct(t)
        assert r.vertex_positions["v"] == (1, 1)

    def test_sensitized_type_succeeds(self):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        r = smooth_construct(t)
        assert verify_realization(t, r).valid
        assert smoothable_lp(t) is not None

    def test_precondition_enforced(self):
        with pytest.raises(TypeProblem):
            smooth_construct(golden_type(with_slopes=True))

    def test_start_invariance_of_success(self):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        for start in ("u", "w"):
            r = smooth_construct(t, start=start)
            assert verify_realization(t, r).valid


class TestVerify:
    def test_tampered_length(self):
        t = descending_type()
        r = smooth_construct(t)
        bad = Realization(
            r.root_vertex,
            {e: l + 1 for e, l in r.edge_lengths.items()},
            r.vertex_positions,
        )
        report = verify_realization(t, bad)
        assert any(c.name == "edge-equations" for c in report.failures())

    def test_boundary_position(self):
        t = descending_type()
        r = smooth_construct(t)
        bad = Realization(
            r.root_vertex,
            r.edge_lengths,
            {**r.vertex_positions, "v1": (Fraction(1), Fraction(0))},
        )
        report = verify_realization(t, bad)
        assert not report.valid

    def test_scaling_cone(self):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        r = smooth_construct(t)
        for lam in (Fraction(1, 3), Fraction(7, 2)):
            assert verify_realization(t, r.scaled(lam)).valid
