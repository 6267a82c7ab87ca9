"""Acceptance suite: nine criteria, one pass/fail line printed per criterion.

Runtimes are asserted where the criterion states a budget.  Every random
suite is seeded, so reruns are reproducible.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from tropi.combtypes import (
    check_gathmann,
    collect_sensitive_slopes,
    lift_numerical_data,
    pushforward_type,
    ray_coefficient,
    solve_balancing,
    validate_type,
)
from tropi.cones import minimal_containing_cone
from tropi.enumeration import DegreeCatalogue, enumerate_types, sensitize_for_data
from tropi.feasibility import fm_feasible, simplex_feasible
from tropi.linalg import is_unimodular, lattice_index
from reference_linalg import solve_rational_system
from tropi.serialize import (
    catalogue_from_dict,
    catalogue_to_dict,
    complex_from_dict,
    complex_to_dict,
    lambda_from_dict,
    lambda_to_dict,
    realization_from_dict,
    realization_to_dict,
    slopes_from_dict,
    slopes_to_dict,
    subdivision_from_dict,
    subdivision_to_dict,
    type_from_dict,
    type_to_dict,
)
from tropi.smoothing import (
    build_smoothing_system,
    check_sensitivity_consequences,
    smooth_construct,
    smoothable_lp,
    verify_realization,
)
from tropi.subdivide import compose, resolve_smooth, sensitize, stellar, stellar_at_point

from fixtures import E1, E2, golden_lambda, golden_type, quadrant
from generators import (
    random_catalogue,
    random_complex,
    random_lambda,
    random_raw_type,
    random_realization,
    random_smooth_fan,
    random_staircase_type,
)

GOLDEN_CATALOGUE = DegreeCatalogue(atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=3)


def _report(n: int, ok: bool, elapsed: float, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" — {note}" if note else ""
    print(f"criterion {n}: {status} ({elapsed * 1000:.1f} ms){extra}", flush=True)
    assert ok, f"criterion {n} failed{extra}"


def _staircase_suite():
    """Criterion 4's 200 seeded staircase types: valid, and passing the
    sensitivity consequences."""
    rng = random.Random(2024)
    count = 0
    while count < 200:
        fan = random_smooth_fan(rng, rng.choice([2, 3]))
        t = random_staircase_type(rng, fan, max_vertices=8)
        if not validate_type(t).valid:
            continue
        if not check_sensitivity_consequences(t).passed:
            continue
        count += 1
        yield t


def _systems(types):
    return [built[0] for built in map(build_smoothing_system, types) if built is not None]


@pytest.fixture(scope="module")
def smoothing_systems():
    """The feasibility systems of criteria 2 and 4 (the golden type, then
    the staircase suite), built once; criterion 6 re-checks them."""
    return _systems([golden_type(with_slopes=True), *_staircase_suite()])


def test_criterion_1_balancing_golden():
    t = golden_type()
    start = time.perf_counter()
    slopes = solve_balancing(t)
    elapsed = time.perf_counter() - start
    ok = slopes[E1] == (1, 2) and slopes[E2] == (2, 1) and elapsed < 0.010
    _report(1, ok, elapsed, f"slopes {slopes[E1]}, {slopes[E2]}")


def test_criterion_2_non_smoothability_golden(smoothing_systems):
    t = golden_type(with_slopes=True)
    start = time.perf_counter()
    witness = smoothable_lp(t)
    report = check_sensitivity_consequences(t)
    elapsed = time.perf_counter() - start
    verdict = report.edges[E1]
    ok = (
        witness is None
        and not verdict.mixed_sign
        and not verdict.flags["v1"].small_jumping
        and elapsed < 0.100
    )
    _report(2, ok, elapsed, "infeasible; edge e1 flagged both ways")
    assert _systems([t]) == smoothing_systems[:1]


def test_criterion_3_sensitization_golden():
    start = time.perf_counter()
    sub = sensitize(quadrant(), [(1, 2), (2, 1)])
    elapsed = time.perf_counter() - start
    rays_ok = set(sub.refined.rays) == {(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)}
    cones_ok = len(sub.refined.max_cones) == 4 and all(
        is_unimodular(sub.refined.generators(frozenset(mc)))
        for mc in sub.refined.max_cones
    )
    ok = rays_ok and cones_ok and elapsed < 0.100
    _report(3, ok, elapsed, f"{len(sub.refined.rays)} rays, 4 unimodular cones")


def test_criterion_4_constructive_smoothing_suite(smoothing_systems):
    start = time.perf_counter()
    disagreements = 0
    count = 0
    systems = []
    for t in _staircase_suite():
        count += 1
        systems += _systems([t])
        try:
            r = smooth_construct(t)
            constructed_ok = verify_realization(t, r).valid
        except Exception:
            constructed_ok = False
        lp_ok = smoothable_lp(t) is not None
        if not (constructed_ok and lp_ok):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    _report(4, ok, elapsed, f"{count} types, {disagreements} disagreements")
    assert systems == smoothing_systems[1:]


def _balancing_oracle(t):
    """Independent solve: per target ray, a generic rational linear system in
    the per-edge fan coordinates, assembled back into ambient vectors."""
    g = t.graph
    edges = list(g.edges)
    fan = t.target
    per_edge = {e: [Fraction(0)] * fan.ambient_dim for e in edges}
    for i in range(len(fan.rays)):
        rows, rhs = [], []
        for v in g.vertices:
            rows.append(
                [1 if e[0] == v else (-1 if e[1] == v else 0) for e in edges]
            )
            b = Fraction(t.graph.degrees[v][i])
            for j in g.legs_at(v):
                c = ray_coefficient(fan, i, t.leg_slopes[j])
                if c is None:
                    return None
                b -= c
            rhs.append(b)
        sol = solve_rational_system(rows, rhs)
        if sol is None:
            return None
        for e, x in zip(edges, sol.vector):
            for d in range(fan.ambient_dim):
                per_edge[e][d] += x * fan.rays[i][d]
    return {e: tuple(per_edge[e]) for e in edges}


def test_criterion_5_solver_cross_validation():
    rng = random.Random(555)
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    while checked < 200:
        fan = random_smooth_fan(rng, rng.choice([2, 3]))
        t = random_staircase_type(rng, fan, max_vertices=8)
        solved = solve_balancing(t)
        oracle = _balancing_oracle(t)
        if oracle is None or {e: tuple(m) for e, m in solved.items()} != oracle:
            mismatches += 1
        for root in t.graph.vertices:
            if solve_balancing(t, root=root) != solved:
                mismatches += 1
                break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(5, ok, elapsed, f"{checked} trees, {mismatches} mismatches")


def test_criterion_6_feasibility_oracle_agreement(smoothing_systems):
    start = time.perf_counter()
    assert smoothing_systems
    disagreements = 0
    for system in smoothing_systems:
        if (fm_feasible(system) is not None) != simplex_feasible(system):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0
    _report(
        6, ok, elapsed, f"{len(smoothing_systems)} systems, {disagreements} disagreements"
    )


def _support_preserved(rng, sub, n_points):
    """Sample exact rational points from base cones; membership in the base
    support must match membership in the refined support, with the refined
    barycentric location consistent."""
    base, refined = sub.base, sub.refined
    for _ in range(n_points):
        mc = rng.choice(sorted(base.max_cones, key=sorted))
        gens = base.generators(frozenset(mc))
        point = tuple(
            sum(
                Fraction(rng.randint(0, 12), rng.randint(1, 5)) * g[d]
                for g in gens
            )
            for d in range(base.ambient_dim)
        )
        in_base = minimal_containing_cone(base, point) is not None
        in_ref = minimal_containing_cone(refined, point) is not None
        if in_base != in_ref or not in_base:
            return False
    return True


def test_criterion_7_subdivision_properties():
    rng = random.Random(777)
    start = time.perf_counter()
    failures = []

    # support preservation: the golden sensitization plus random smoothings
    subs = [sensitize(quadrant(), [(1, 2), (2, 1)])]
    for _ in range(3):
        fan = random_complex(rng, 2)
        subs.append(resolve_smooth(fan))
    for sub in subs:
        if not _support_preserved(rng, sub, 1000):
            failures.append("support not preserved")

    # resolve_smooth reaches multiplicity one everywhere
    for _ in range(10):
        fan = random_complex(rng, rng.choice([2, 3]))
        smooth = resolve_smooth(fan).refined
        for mc in smooth.max_cones:
            if lattice_index(smooth.generators(frozenset(mc))) != 1:
                failures.append(f"multiplicity > 1 after smoothing: {sorted(mc)}")

    # pushforward functoriality on 100 (type, stellar, stellar) triples
    for _ in range(100):
        fan = random_smooth_fan(rng, rng.choice([2, 3]))
        big = sorted((frozenset(m) for m in fan.max_cones if len(m) >= 2), key=sorted)
        if not big:
            continue
        s1 = stellar(fan, rng.choice(big))
        big2 = sorted(
            (frozenset(m) for m in s1.refined.max_cones if len(m) >= 2), key=sorted
        )
        s2 = stellar(s1.refined, rng.choice(big2)) if big2 else None
        if s2 is None:
            continue
        t = random_staircase_type(rng, s2.refined, max_vertices=5)
        stepwise = pushforward_type(s1, pushforward_type(s2, t))
        direct = pushforward_type(compose(s1, s2), t)
        same = (
            stepwise.graph.vertices == direct.graph.vertices
            and stepwise.graph.degrees == direct.graph.degrees
            and stepwise.vertex_cones == direct.vertex_cones
            and stepwise.edge_cones == direct.edge_cones
            and stepwise.edge_slopes == direct.edge_slopes
        )
        if not same:
            failures.append("pushforward functoriality broke")
    elapsed = time.perf_counter() - start
    _report(7, not failures, elapsed, "; ".join(failures[:3]) or "all held")


def test_criterion_8_pipeline_idempotence():
    start = time.perf_counter()
    sub = sensitize_for_data(quadrant(), golden_lambda(), GOLDEN_CATALOGUE)

    # replay the refinement as single stellar steps, lifting the data each time
    lam = golden_lambda()
    fan = quadrant()
    for point in [(1, 1), (2, 1), (1, 2)]:
        step = stellar_at_point(fan, point)
        lam = lift_numerical_data(step, lam)
        fan = step.refined
    decomposition_ok = fan == sub.refined

    # documented rerun catalogue: the zero vector and the lifted total degree
    rerun_catalogue = DegreeCatalogue(
        atoms=[tuple(0 for _ in fan.rays), lam.total_degree], max_vertices=3
    )
    again = sensitize_for_data(fan, lam, rerun_catalogue)
    no_new_rays = set(again.refined.rays) == set(fan.rays)
    elapsed = time.perf_counter() - start
    ok = decomposition_ok and no_new_rays
    _report(8, ok, elapsed, f"rerun rays {sorted(again.refined.rays)}")


def test_criterion_9_round_trip_property():
    rng = random.Random(999)
    start = time.perf_counter()
    failures = 0
    checked = 0

    def check(to_dict, from_dict, value):
        nonlocal failures, checked
        checked += 1
        if from_dict(json.loads(json.dumps(to_dict(value)))) != value:
            failures += 1

    complexes = [random_complex(rng) for _ in range(50)]
    for i in range(1000):
        c = complexes[i % len(complexes)]
        check(complex_to_dict, complex_from_dict, c)
    for i in range(1000):
        base = complexes[i % len(complexes)]
        big = sorted((frozenset(m) for m in base.max_cones if len(m) >= 2), key=sorted)
        sub = stellar(base, rng.choice(big)) if big else resolve_smooth(base)
        check(subdivision_to_dict, subdivision_from_dict, sub)
    types = []
    for i in range(1000):
        t = random_raw_type(rng, complexes[i % len(complexes)])
        types.append(t)
        check(type_to_dict, type_from_dict, t)
    for i in range(1000):
        check(
            lambda_to_dict,
            lambda_from_dict,
            random_lambda(rng, complexes[i % len(complexes)]),
        )
    for i in range(1000):
        check(
            realization_to_dict,
            realization_from_dict,
            random_realization(rng, types[i]),
        )
    for _ in range(1000):
        check(catalogue_to_dict, catalogue_from_dict, random_catalogue(rng, 3))
    for _ in range(1000):
        slopes = sorted(
            {tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)}
        )
        if slopes_from_dict(json.loads(json.dumps(slopes_to_dict(slopes)))) != [
            tuple(s) for s in sorted(slopes)
        ]:
            failures += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(9, ok, elapsed, f"{checked} instances, {failures} failures")
