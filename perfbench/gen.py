"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit ``random.Random`` so the same seed gives
the same inputs.  The staircase family is adapted from the test suite's
generators and kept here, so later edits to the tests cannot move the
benchmark.  Sizes are fixed schedules and the seed only changes structure
that leaves the cost of an item roughly unchanged (tree shapes, unimodular
changes of coordinates, which cone a move goes through), so runs with
different seeds measure comparable amounts of work.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from tropi.combtypes import CombinatorialType, DecoratedGraph, NumericalData, ray_coefficient
from tropi.cones import ConeComplex, build_snc_tropicalization, minimal_containing_cone
from tropi.subdivide import stellar, stellar_at_point


class GeneratorError(RuntimeError):
    """A generator produced an input that breaks its own construction."""


def coordinate_fan(k: int) -> ConeComplex:
    """The full first-orthant fan in dimension k (all faces)."""
    return build_snc_tropicalization(
        k,
        [{i + 1 for i in range(k) if mask >> i & 1} for mask in range(1, 1 << k)],
    )


def smooth_fan(rng: random.Random, k: int, n_stellar: int) -> ConeComplex:
    """The orthant fan after n_stellar barycentric stellar steps (stays smooth)."""
    fan = coordinate_fan(k)
    for _ in range(n_stellar):
        big = sorted((frozenset(c) for c in fan.max_cones if len(c) >= 2), key=sorted)
        fan = stellar(fan, rng.choice(big)).refined
    return fan


def _random_tree_edges(rng: random.Random, names: list[str]) -> list[tuple[str, str]]:
    """Uniform random attachment tree; the parent always comes first."""
    return [(names[rng.randrange(i)], names[i]) for i in range(1, len(names))]


def _max_cones_containing(fan: ConeComplex, cone) -> list:
    return sorted(
        (frozenset(m) for m in fan.max_cones if cone <= frozenset(m)), key=sorted
    )


def staircase_type(
    rng: random.Random, fan: ConeComplex, n_vertices: int
) -> CombinatorialType:
    """Valid type on a smooth fan whose every edge is contracted or moves one
    ray up or down, carrying that ray's generator as its slope.

    Such types pass the sensitivity consequences by construction, so both
    smoothability procedures succeed on them.
    """
    names = [f"v{i}" for i in range(n_vertices)]
    edges = _random_tree_edges(rng, names)
    all_cones = sorted(fan.cones(), key=lambda c: (len(c), sorted(c)))
    vertex_cones = {names[0]: rng.choice(all_cones)}
    edge_cones, slopes, edge_fan_coords = {}, {}, {}
    k, n_rays = fan.ambient_dim, len(fan.rays)
    for a, b in edges:
        sa = vertex_cones[a]
        moves = ["stay"]
        ups = sorted({i for m in _max_cones_containing(fan, sa) for i in m} - sa)
        if ups:
            moves.append("up")
        if sa:
            moves.append("down")
        move = rng.choice(moves)
        if move == "stay":
            vertex_cones[b] = sa
            edge_cones[(a, b)] = sa
            slopes[(a, b)] = (0,) * k
            edge_fan_coords[(a, b)] = [0] * n_rays
        elif move == "up":
            i = rng.choice(ups)
            vertex_cones[b] = edge_cones[(a, b)] = sa | {i}
            slopes[(a, b)] = fan.rays[i]
            edge_fan_coords[(a, b)] = [int(j == i) for j in range(n_rays)]
        else:
            i = rng.choice(sorted(sa))
            vertex_cones[b] = sa - {i}
            edge_cones[(a, b)] = sa
            slopes[(a, b)] = tuple(-x for x in fan.rays[i])
            edge_fan_coords[(a, b)] = [-int(j == i) for j in range(n_rays)]
    legs, leg_cones, leg_slopes = [], {}, {}
    for v in names:
        for _ in range(rng.randint(0, 2)):
            label = len(legs) + 1
            legs.append((v, label))
            base = rng.choice(_max_cones_containing(fan, vertex_cones[v]))
            ids = sorted(base)
            coeffs = [
                rng.randint(1, 3) if i in vertex_cones[v] else rng.randint(0, 2)
                for i in ids
            ]
            slope = tuple(
                sum(c * fan.rays[i][d] for c, i in zip(coeffs, ids)) for d in range(k)
            )
            leg_slopes[label] = slope
            if slope == (0,) * k:
                leg_cones[label] = vertex_cones[v]
            else:
                cone = minimal_containing_cone(fan, slope)
                if cone is None:
                    raise GeneratorError(f"leg slope {slope} outside the fan")
                leg_cones[label] = cone
            if not vertex_cones[v] <= leg_cones[label]:
                leg_cones[label] = frozenset(
                    i for i, c in zip(ids, coeffs) if c > 0
                ) | vertex_cones[v]
    # degrees forced by balancing: legs plus outgoing slopes, in fan coordinates
    degrees = {}
    for v in names:
        total = [Fraction(0)] * n_rays
        for j in [j for w, j in legs if w == v]:
            for i in range(n_rays):
                c = ray_coefficient(fan, i, leg_slopes[j])
                if c is None:
                    raise GeneratorError(f"leg slope {leg_slopes[j]} outside the fan")
                total[i] += c
        for a, b in edges:
            sign = 1 if a == v else -1 if b == v else 0
            if sign:
                total = [x + sign * y for x, y in zip(total, edge_fan_coords[(a, b)])]
        if any(x.denominator != 1 for x in total):
            raise GeneratorError("staircase degree is not integral")
        degrees[v] = tuple(int(x) for x in total)
    return CombinatorialType(
        graph=DecoratedGraph(names, edges, legs, degrees),
        target=fan,
        vertex_cones=vertex_cones,
        edge_cones=edge_cones,
        leg_cones=leg_cones,
        leg_slopes=leg_slopes,
        edge_slopes=slopes,
    )


def random_lambda(rng: random.Random, fan: ConeComplex, n: int) -> NumericalData:
    """n tangency vectors with integral fan coordinates, and their total degree."""
    cones = sorted(fan.cones(), key=lambda c: (len(c), sorted(c)))
    alphas = []
    for _ in range(n):
        gens = fan.generators(rng.choice(cones))
        alphas.append(
            tuple(
                sum(rng.randint(0, 3) * g[i] for g in gens)
                for i in range(fan.ambient_dim)
            )
        )
    total = [0] * len(fan.rays)
    for a in alphas:
        for i in range(len(fan.rays)):
            total[i] += int(ray_coefficient(fan, i, a))
    return NumericalData(n, alphas, tuple(total))


# -- refine: high-index cones and octant slope sets ---------------------------


def _unimodular(rng: random.Random, k: int, steps: int = 3) -> list[list[int]]:
    """A random matrix in GL_k(Z): a few elementary row moves, then a row shuffle."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i, j = rng.sample(range(k), 2)
        c = rng.choice([-1, 1])
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _apply(u: list[list[int]], v) -> tuple[int, ...]:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in u)


def _ladder(n: int, lo: int, hi: int) -> list[int]:
    """n multiplicities from lo to hi, cubically weighted toward lo."""
    return [lo + ((hi - lo) * i**3) // (n - 1) ** 3 for i in range(n)]


def high_index_cones(
    rng: random.Random, n2: int, hi2: int, n3: int, hi3: int
) -> list[ConeComplex]:
    """Distinct single-cone complexes of lattice index m in a fixed ladder.

    2D cones are ((1,0),(1,m)), whose resolution adds about m rays; 3D cones
    are ((1,0,0),(0,1,0),(1,2,m)).  The seed moves each cone by a random
    unimodular map, which keeps its index and the number of rays its
    resolution adds; a map that repeats an earlier cone is redrawn, so no
    item is a cache hit of another.
    """
    shapes = [((1, 0), (1, m)) for m in _ladder(n2, 2, hi2)]
    shapes += [((1, 0, 0), (0, 1, 0), (1, 2, m)) for m in _ladder(n3, 2, hi3)]
    seen, out = set(), []
    for gens in shapes:
        while True:
            u = _unimodular(rng, len(gens[0]))
            moved = frozenset(_apply(u, g) for g in gens)
            if moved not in seen:
                break
        seen.add(moved)
        out.append(ConeComplex(len(gens[0]), sorted(moved), [range(len(gens))]))
    return out


# -- files: CLI payloads ------------------------------------------------------


def corrupt_type(rng: random.Random, t: CombinatorialType) -> CombinatorialType:
    """A copy of t that fails validation: one moving edge's slope is negated,
    which breaks positivity on the direction the edge moves into."""
    moving = [e for e, m in sorted(t.edge_slopes.items()) if any(m)]
    if not moving:
        raise GeneratorError("type has no moving edge to corrupt")
    e = rng.choice(moving)
    slopes = dict(t.edge_slopes)
    slopes[e] = tuple(-x for x in slopes[e])
    return t.with_slopes(slopes)


def cli_payload(rng: random.Random, index: int) -> dict:
    """Inputs for one pass of the CLI pipeline on a small smooth 2D fan.

    Returns the in-memory objects the benchmark writes to disk: the fan, an
    unbalanced staircase type on it, numerical data, one slope that makes
    ``sensitize`` a single stellar step, a balanced staircase type on the
    refined fan (for ``pushforward``) and, on every fourth payload, a type
    that ``validate`` must reject.
    """
    fan = smooth_fan(rng, 2, index % 3)
    n_vertices = 2 + index % 5
    while True:
        balanced = staircase_type(rng, fan, n_vertices)
        if index % 4 != 3 or any(any(m) for m in balanced.edge_slopes.values()):
            break
    cone = rng.choice(sorted((frozenset(c) for c in fan.max_cones), key=sorted))
    slope = tuple(sum(g[r] for g in fan.generators(cone)) for r in range(2))
    refined = stellar_at_point(fan, slope).refined
    payload = {
        "complex": fan,
        "type": replace(balanced, edge_slopes=None),
        "lambda": random_lambda(rng, fan, 1 + index % 3),
        "slopes": [slope],
        "refined_type": staircase_type(rng, refined, n_vertices),
    }
    if index % 4 == 3:
        payload["corrupt_type"] = corrupt_type(rng, balanced)
    return payload

