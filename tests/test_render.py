from dataclasses import replace

import pytest

from tropi.combtypes import CombinatorialType, DecoratedGraph, solve_balancing
from tropi.cones import ORIGIN, build_snc_tropicalization
from tropi.render import RenderError, render, render_dot, render_svg
from tropi.smoothing import smooth_construct
from tropi.subdivide import sensitize

from fixtures import golden_type, quadrant


def single_vertex():
    q = quadrant()
    return CombinatorialType(
        graph=DecoratedGraph(["v"], [], [], {"v": (0, 0)}),
        target=q,
        vertex_cones={"v": ORIGIN},
        edge_cones={},
        leg_cones={},
        leg_slopes={},
        edge_slopes={},
    )


def realized_ray_type():
    r = sensitize(quadrant(), [(1, 2), (2, 1)]).refined
    ray = frozenset({r.rays.index((1, 2))})
    ray_e1 = frozenset({r.rays.index((1, 0))})
    d_u = tuple(1 if v in [(1, 0), (1, 2)] else 0 for v in r.rays)
    d_w = tuple(1 if v == (1, 2) else 0 for v in r.rays)
    t = CombinatorialType(
        graph=DecoratedGraph(
            ["u", "w"], [("u", "w")], [("u", 1), ("w", 2)], {"u": d_u, "w": d_w}
        ),
        target=r,
        vertex_cones={"u": ORIGIN, "w": ray},
        edge_cones={("u", "w"): ray},
        leg_cones={1: ray_e1, 2: ray},
        leg_slopes={1: (1, 0), 2: (2, 4)},
    )
    t = t.with_slopes(solve_balancing(t))
    return t, smooth_construct(t)


class TestDot:
    def test_golden_edge_labels(self):
        text = render_dot(golden_type(with_slopes=True))
        assert text.startswith("graph")
        assert "(1, 2)" in text
        assert "(2, 1)" in text

    def test_single_vertex(self):
        text = render_dot(single_vertex())
        assert text.count("--") == 0
        assert '"v"' in text

    def test_deterministic(self):
        t = golden_type(with_slopes=True)
        assert render_dot(t) == render_dot(t)

    def test_balanced_braces(self):
        text = render_dot(golden_type(with_slopes=True))
        assert text.strip().endswith("}")


class TestSvg:
    def test_overlay_on_sensitized_fan_has_five_rays(self):
        t, r = realized_ray_type()
        text = render_svg(t.target, t, r)
        assert text.count('class="ray"') == 5
        assert '<circle class="vertex"' in text
        assert text.startswith("<svg")

    def test_fan_only(self):
        text = render_svg(quadrant())
        assert text.count('class="ray"') == 2

    def test_rejects_higher_dimension(self):
        octant = build_snc_tropicalization(3, [{1}, {2}, {3}])
        with pytest.raises(RenderError, match="dot"):
            render_svg(octant)

    def test_rejects_realization_of_another_type(self):
        t, r = realized_ray_type()
        for positions in ({"u": r.vertex_positions["u"]}, {"u": (0,), "w": (1,)}):
            with pytest.raises(RenderError, match="every vertex"):
                render_svg(t.target, t, replace(r, vertex_positions=positions))

    def test_coordinates_are_plain_decimals(self):
        import re

        t, r = realized_ray_type()
        text = render_svg(t.target, t, r)
        for value in re.findall(r'(?<![a-zA-Z])[xy][12]?="([^"]+)"', text):
            assert re.fullmatch(r"-?\d+(\.\d+)?", value), value


class TestDispatch:
    def test_formats(self):
        t = golden_type(with_slopes=True)
        assert render(t, None, "dot").startswith("graph")
        assert render(t, None, "svg").startswith("<svg")

    def test_unknown_format(self):
        with pytest.raises(RenderError):
            render(golden_type(with_slopes=True), None, "png")
