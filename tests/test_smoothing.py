import random
from fractions import Fraction

import pytest

from tropi.cones import ORIGIN
from tropi.combtypes import (
    CombinatorialType,
    DecoratedGraph,
    TypeProblem,
    ValidationCheck,
    ValidationReport,
    solve_balancing,
)
from tropi.feasibility import LinearSystem, fm_feasible
from tropi.linalg import vec_add, vec_scale
from tropi.smoothing import (
    Realization,
    _legs_admissible,
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
    random_realization,
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


def _path_slopes(t, root):
    """Per vertex: which edges lie on its root path, with orientation sign.

    Sign +1 means the stored orientation points away from the root.
    """
    paths = {root: {}}
    for v, e, w in t.graph.walk(root):
        paths[w] = {**paths[v], e: 1 if e[0] == v else -1}
    return paths


def _functionals(kern):
    """The barycentric functionals (U U^T)^-1 U, one row per generator."""
    return [tuple(Fraction(x, kern.denom) for x in row) for row in kern.dual]


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
        ineqs += [(position_row(f, paths[v]), 1) for f in _functionals(kern)]
    for a, b in g.edges:
        for f in _functionals(t.target.kernel(t.edge_cones[(a, b)])):
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


class TestLegsAdmissible:
    def test_negative_coordinate_on_the_vertex_cone(self):
        """Slope (-1, 1) from a vertex on the ray (1, 0), in the span of the
        full quadrant but not in it: no realization exists."""
        q = quadrant()
        ray1 = frozenset({q.rays.index((1, 0))})
        t = CombinatorialType(
            graph=DecoratedGraph(["v"], [], [("v", 1)], {"v": (0, 0)}),
            target=q,
            vertex_cones={"v": ray1},
            edge_cones={},
            leg_cones={1: frozenset(range(2))},
            leg_slopes={1: (-1, 1)},
            edge_slopes={},
        )
        assert not _legs_admissible(t)
        assert build_smoothing_system(t) is None

    def test_matches_cone_coords(self):
        """The numerator signs give the verdict of the coordinates from
        cone_coords on arbitrary decorations."""
        rng = random.Random(17)
        verdicts = set()
        for _ in range(300):
            t = random_raw_type(rng, random_complex(rng))
            expected = True
            for v, j in t.graph.legs:
                cone = t.leg_cones[j]
                coords = t.target.cone_coords(cone, t.leg_slopes[j])
                if coords is None or any(
                    c <= 0 and i not in t.vertex_cones[v]
                    for i, c in zip(sorted(cone), coords)
                ):
                    expected = False
            assert _legs_admissible(t) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


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

    def test_unknown_start_vertex(self):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        with pytest.raises(TypeProblem, match="'nope'"):
            smooth_construct(t, start="nope")


def reference_smooth_construct(t, start=None):
    """smooth_construct as it was: the greedy walk over Fraction positions."""
    assert check_sensitivity_consequences(t).passed
    g = t.graph
    if start is None:
        start = g.vertices[0]
    positions = {
        start: tuple(Fraction(x) for x in t.target.barycenter(t.vertex_cones[start]))
    }
    lengths = {}
    for v, e, w in g.walk(start):
        cone = t.edge_cones[e]
        ids = sorted(cone)
        m = t.slope_from(v, e)
        if not cone:
            lengths[e] = Fraction(1)
            positions[w] = positions[v]
            continue
        kern = t.target.kernel(cone)
        mu = kern.numerators(positions[v])
        a = kern.numerators(m)
        dropped = [i for i, rid in enumerate(ids) if rid not in t.vertex_cones[w]]
        if dropped:
            (i0,) = dropped
            length = Fraction(mu[i0], -a[i0])
        else:
            bounds = [Fraction(mu[i], -a[i]) for i in range(len(ids)) if a[i] < 0]
            length = min(bounds) / 2 if bounds else Fraction(1)
        lengths[e] = length
        positions[w] = vec_add(positions[v], vec_scale(length, m))
    return Realization(start, lengths, positions)


def _zigzag(rng, t):
    """t with each contracted edge in a cone of two or more rays given the
    slope r_i - r_j of two of its rays instead: still sensitive, and the
    walk halves its lengths there, so positions become fractional."""
    slopes = dict(t.edge_slopes)
    for e, m in slopes.items():
        ids = sorted(t.edge_cones[e])
        if not any(m) and len(ids) >= 2:
            i, j = rng.sample(ids, 2)
            slopes[e] = vec_add(t.target.rays[i], vec_scale(-1, t.target.rays[j]))
    return t.with_slopes(slopes)


class TestIntegerWalk:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_fraction_reference(self, k):
        """From every start vertex of seeded staircase types of up to 64
        vertices, and of their zigzag variants, the integer walk gives the
        Fraction walk's realization with the same vertex order."""
        rng = random.Random(40 + k)
        walks = fractional = 0
        for _ in range(8):
            t = random_staircase_type(rng, random_smooth_fan(rng, k), 64)
            for u in (t, _zigzag(rng, t)):
                for start in u.graph.vertices:
                    r = smooth_construct(u, start=start)
                    expected = reference_smooth_construct(u, start=start)
                    assert r == expected
                    assert list(r.vertex_positions) == list(expected.vertex_positions)
                    walks += 1
                    coords = [x for p in r.vertex_positions.values() for x in p]
                    fractional += any(x.denominator > 1 for x in coords)
        assert walks >= 300 and fractional >= 50


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


# -- the integer verifier against the Fraction code it replaced ---------------


def reference_verify_realization(t, r):
    """verify_realization as it was over Fractions, through cone_coords."""
    checks = []

    def add(name, passed, detail=""):
        checks.append(ValidationCheck(name, passed, detail))

    g = t.graph
    ok, detail = True, ""
    for e in g.edges:
        if r.edge_lengths.get(e, Fraction(0)) <= 0:
            ok, detail = False, f"edge {e} has nonpositive length"
    add("positive-lengths", ok, detail)

    ok, detail = True, ""
    for e in g.edges:
        if e not in r.edge_lengths:
            continue
        a, b = e
        expected = vec_add(
            r.vertex_positions[a],
            vec_scale(r.edge_lengths[e], t.slope_from(a, e)),
        )
        if tuple(expected) != tuple(r.vertex_positions[b]):
            ok, detail = False, f"edge {e} equation fails"
    add("edge-equations", ok, detail)

    ok, detail = True, ""
    for v in g.vertices:
        coords = t.target.cone_coords(t.vertex_cones[v], r.vertex_positions[v])
        if coords is None or any(c <= 0 for c in coords):
            ok, detail = False, f"vertex {v} not interior to its cone"
    add("vertex-interiority", ok, detail)

    ok, detail = True, ""
    for e in g.edges:
        a, b = e
        mid = tuple(
            (x + y) / 2
            for x, y in zip(r.vertex_positions[a], r.vertex_positions[b])
        )
        coords = t.target.cone_coords(t.edge_cones[e], mid)
        if coords is None or any(c <= 0 for c in coords):
            ok, detail = False, f"edge {e} midpoint not interior to its cone"
    add("edge-interiority", ok, detail)

    ok, detail = True, ""
    for v, j in g.legs:
        cone = t.leg_cones[j]
        pos = t.target.cone_coords(cone, r.vertex_positions[v])
        slope = t.target.cone_coords(cone, t.leg_slopes[j])
        if pos is None or slope is None:
            ok, detail = False, f"leg {j} leaves the span of its cone"
            continue
        for pc, sc in zip(pos, slope):
            if sc < 0 or (pc <= 0 and sc <= 0):
                ok, detail = False, f"leg {j} ray not interior for all times"
    add("leg-interiority", ok, detail)

    return ValidationReport(tuple(checks))


def reference_realization_from_witness(t, witness, edge_index, root):
    """_realization_from_witness as it was: each vertex summed along its
    whole root path over Fractions."""
    k = t.target.ambient_dim
    x = witness[:k]
    lengths = {e: witness[k + i] for e, i in edge_index.items()}
    positions = {}
    for v, path in _path_slopes(t, root).items():
        pos = tuple(Fraction(c) for c in x)
        for e, sign in path.items():
            m = t.slope_from(e[0], e) if sign == 1 else t.slope_from(e[1], e)
            pos = vec_add(pos, vec_scale(lengths[e], m))
        positions[v] = pos
    return Realization(root, lengths, positions)


def _with(r, lengths=None, positions=None):
    return Realization(
        r.root_vertex,
        {**r.edge_lengths, **(lengths or {})},
        {**r.vertex_positions, **(positions or {})},
    )


def _off_cone(t, r, v):
    """v's position moved just past the first generator of its cone, or off
    the origin."""
    p = r.vertex_positions[v]
    cone = t.vertex_cones[v]
    if not cone:
        return vec_add(p, (Fraction(1, 7),) + (0,) * (len(p) - 1))
    kern = t.target.kernel(cone)
    c0 = Fraction(kern.numerators(p)[0], kern.denom)
    return vec_add(p, vec_scale(-(c0 + Fraction(1, 7)), t.target.generators(cone)[0]))


def _leg_trap(t, r):
    """A leg's vertex moved to -1 times one leg-cone generator on which the
    leg's slope is positive, plus the others: one negative coordinate with a
    positive slope coordinate there.  None when no leg allows it."""
    for v, j in t.graph.legs:
        cone = t.leg_cones[j]
        nums = t.target.kernel(cone).numerators(t.leg_slopes[j])
        hits = [i for i, c in enumerate(nums) if c > 0]
        if hits:
            gens = t.target.generators(cone)
            coeffs = [-1 if i == hits[0] else 1 for i in range(len(gens))]
            pos = tuple(sum(c * g[d] for c, g in zip(coeffs, gens)) for d in range(len(gens[0])))
            return _with(r, positions={v: pos})
    return None


class TestIntegerVerifier:
    """verify_realization and _realization_from_witness against the Fraction
    code they replaced, on valid realizations and on perturbations of them."""

    def _types(self):
        yield golden_type(with_slopes=True)
        yield ray_type().with_slopes(solve_balancing(ray_type()))
        yield descending_type()
        rng = random.Random(47)
        for _ in range(64):
            yield random_staircase_type(rng, random_smooth_fan(rng, rng.choice([2, 3])))

    def _cases(self):
        """(type, realization, label) for every input the test compares."""
        rng = random.Random(5)
        for t in self._types():
            valid = []
            try:
                valid.append(smooth_construct(t))
            except TypeProblem:
                pass
            lp = smoothable_lp(t)
            if lp is not None:
                valid.append(lp)
            yield t, random_realization(rng, t), "random"
            for r in valid:
                yield t, r, "valid"
                yield t, r.scaled(Fraction(-1)), "negated"
                yield t, r.scaled(Fraction(5, 3)), "scaled"
                yield t, r.scaled(Fraction(2, 9)), "scaled"
                v = rng.choice(t.graph.vertices)
                yield t, _with(r, positions={v: _off_cone(t, r, v)}), "off-cone"
                if t.graph.edges:
                    e = rng.choice(t.graph.edges)
                    yield t, _with(r, lengths={e: Fraction(0)}), "zero-length"
                    yield t, _with(r, lengths={e: Fraction(1, 97)}), "odd-length"
                trap = _leg_trap(t, r)
                if trap is not None:
                    yield t, trap, "leg-trap"

    def test_reports_match_reference(self):
        seen = {}
        for t, r, label in self._cases():
            report = verify_realization(t, r)
            assert report == reference_verify_realization(t, r), label
            if label == "negated" and not any(map(any, r.vertex_positions.values())):
                label = "negated at the origin"
            seen.setdefault(label, []).append(report)
        assert len(seen["valid"]) >= 60
        assert all(r.valid for r in seen["valid"])
        assert not any(r.valid for r in seen["negated"])
        assert not any(r.checks[2].passed for r in seen["off-cone"])
        assert all(r.valid for r in seen["scaled"])
        assert not any(r.valid for r in seen["zero-length"])
        # a contracted edge takes any positive length
        assert any(r.valid for r in seen["odd-length"])
        assert len(seen["leg-trap"]) >= 20
        for r in seen["leg-trap"]:
            assert r.checks[-1].detail.endswith("leaves the span of its cone")

    def test_lp_realizations_match_reference(self):
        feasible = 0
        for t in self._types():
            built = build_smoothing_system(t)
            if built is None:
                assert smoothable_lp(t) is None
                continue
            sys, edge_index, root = built
            witness = fm_feasible(sys)
            r = smoothable_lp(t)
            if witness is None:
                assert r is None
                continue
            feasible += 1
            expected = reference_realization_from_witness(t, witness, edge_index, root)
            assert r == expected
            assert list(r.vertex_positions) == list(expected.vertex_positions)
            assert all(
                type(x) is Fraction for p in r.vertex_positions.values() for x in p
            )
        assert feasible >= 40


class TestMalformedRealization:
    def _valid(self):
        t = ray_type().with_slopes(solve_balancing(ray_type()))
        return t, smooth_construct(t)

    def test_missing_position(self):
        t, r = self._valid()
        positions = {v: p for v, p in r.vertex_positions.items() if v != "w"}
        with pytest.raises(TypeProblem, match="vertex w"):
            verify_realization(t, Realization(r.root_vertex, r.edge_lengths, positions))

    def test_wrong_length_position(self):
        t, r = self._valid()
        bad = _with(r, positions={"u": (0, 0, 0)})
        with pytest.raises(TypeProblem, match="vertex u"):
            verify_realization(t, bad)

    def test_float_entry(self):
        t, r = self._valid()
        p = r.vertex_positions["w"]
        bad = _with(r, positions={"w": (float(p[0]),) + p[1:]})
        with pytest.raises(TypeError):
            reference_verify_realization(t, bad)
        with pytest.raises(TypeError):
            verify_realization(t, bad)
        e = t.graph.edges[0]
        with pytest.raises(TypeError):
            verify_realization(t, _with(r, lengths={e: float(r.edge_lengths[e])}))
