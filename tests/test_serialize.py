import json
import os
import random
import stat
from fractions import Fraction

import pytest

from tropi.serialize import (
    SerializationError,
    catalogue_from_dict,
    catalogue_to_dict,
    complex_from_dict,
    complex_to_dict,
    fraction_from_str,
    fraction_to_str,
    lambda_from_dict,
    lambda_to_dict,
    load_json,
    realization_from_dict,
    realization_to_dict,
    save_json,
    save_text,
    slopes_from_dict,
    slopes_to_dict,
    subdivision_from_dict,
    subdivision_to_dict,
    type_from_dict,
    type_to_dict,
)
from tropi.combtypes import TypeProblem
from tropi.cones import ComplexError, ConeComplex, build_snc_tropicalization
from tropi.subdivide import (
    Subdivision,
    identity_subdivision,
    resolve_smooth,
    sensitize,
    stellar,
    stellar_at_point,
)

from fixtures import golden_lambda, golden_type, quadrant
from generators import (
    random_catalogue,
    random_complex,
    random_lambda,
    random_raw_type,
    random_realization,
)


def _json_round(payload):
    """Force a pass through actual JSON text."""
    return json.loads(json.dumps(payload))


class TestFractions:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            f = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert fraction_from_str(fraction_to_str(f)) == f

    def test_canonical_rejected(self):
        with pytest.raises(SerializationError):
            fraction_from_str("2/4")
        with pytest.raises(SerializationError):
            fraction_from_str("1/-3")
        with pytest.raises(SerializationError):
            fraction_from_str("1/0")
        with pytest.raises(SerializationError):
            fraction_from_str("abc")
        with pytest.raises(SerializationError):
            fraction_from_str(1.5)


class TestRoundTrips:
    def test_complex(self):
        rng = random.Random(11)
        for _ in range(40):
            c = random_complex(rng)
            assert complex_from_dict(_json_round(complex_to_dict(c))) == c

    def test_subdivision(self):
        rng = random.Random(13)
        subs = [
            identity_subdivision(quadrant()),
            stellar(quadrant(), frozenset(range(2))),
            sensitize(quadrant(), [(1, 2), (2, 1)]),
        ]
        for _ in range(10):
            c = random_complex(rng, 2)
            big = [m for m in c.max_cones if len(m) >= 2]
            if big:
                subs.append(stellar(c, sorted(big, key=sorted)[0]))
        for s in subs:
            back = subdivision_from_dict(_json_round(subdivision_to_dict(s)))
            assert back == s

    def test_large_subdivisions(self):
        """Files that reading back once spent seconds validating: a rank-2
        resolution with 200 cones and the 207-cone octant refinement."""
        octant = build_snc_tropicalization(
            3, [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
        )
        subs = [
            resolve_smooth(ConeComplex(2, [(1, 0), (1, 200)], [{0, 1}])),
            sensitize(octant, [(1, 2, 3), (3, 1, 2)]),
        ]
        assert [len(s.refined.max_cones) for s in subs] == [200, 207]
        for s in subs:
            back = subdivision_from_dict(_json_round(subdivision_to_dict(s)))
            assert back == s

    def test_type(self):
        rng = random.Random(17)
        for _ in range(40):
            t = random_raw_type(rng, random_complex(rng))
            assert type_from_dict(_json_round(type_to_dict(t))) == t
        g = golden_type(with_slopes=True)
        assert type_from_dict(_json_round(type_to_dict(g))) == g

    def test_lambda(self):
        rng = random.Random(19)
        for _ in range(40):
            lam = random_lambda(rng, random_complex(rng))
            assert lambda_from_dict(_json_round(lambda_to_dict(lam))) == lam
        assert (
            lambda_from_dict(_json_round(lambda_to_dict(golden_lambda())))
            == golden_lambda()
        )

    def test_realization(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_raw_type(rng, random_complex(rng))
            r = random_realization(rng, t)
            assert realization_from_dict(_json_round(realization_to_dict(r))) == r

    def test_catalogue(self):
        rng = random.Random(29)
        for _ in range(40):
            cat = random_catalogue(rng, rng.randint(1, 4))
            assert catalogue_from_dict(_json_round(catalogue_to_dict(cat))) == cat

    def test_slopes(self):
        slopes = [(1, 2), (2, 1), (0, 1)]
        assert set(slopes_from_dict(_json_round(slopes_to_dict(slopes)))) == set(
            slopes
        )


class TestFiles:
    def test_atomic_write_and_load(self, tmp_path):
        path = str(tmp_path / "c.json")
        c = quadrant()
        save_json(path, complex_to_dict(c))
        assert complex_from_dict(load_json(path)) == c
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    @pytest.fixture
    def umask(self):
        """Set the process umask for one test, then restore it."""
        saved = os.umask(0o022)
        yield os.umask
        os.umask(saved)

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_file_mode_follows_umask(self, tmp_path, umask, mask, mode):
        umask(mask)
        path = tmp_path / "c.json"
        save_json(str(path), complex_to_dict(quadrant()))
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_overwrite_keeps_mode(self, tmp_path, umask):
        umask(0o077)
        path = tmp_path / "c.json"
        path.write_text("old\n")
        path.chmod(0o640)
        save_text(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            save_text(str(path), "\ud800")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_float_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"x": 1.5}')
        with pytest.raises(SerializationError):
            load_json(str(path))

    def test_missing_file(self):
        with pytest.raises(SerializationError):
            load_json("/nonexistent/nope.json")

    def test_no_floats_in_output(self, tmp_path):
        rng = random.Random(31)
        t = random_raw_type(rng, random_complex(rng))
        r = random_realization(rng, t)
        path = str(tmp_path / "r.json")
        save_json(path, realization_to_dict(r))
        text = (tmp_path / "r.json").read_text()
        parsed = json.loads(text)

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(parsed)


class TestBadPayloads:
    def test_bad_complex(self):
        with pytest.raises(SerializationError):
            complex_from_dict({"rays": []})

    def test_bad_type(self):
        with pytest.raises(SerializationError):
            type_from_dict({"vertices": ["v"]})

    def test_bad_subdivision_coverage(self):
        s = identity_subdivision(quadrant())
        data = _json_round(subdivision_to_dict(s))
        data["cone_image"] = data["cone_image"][:-1]
        with pytest.raises(SerializationError):
            subdivision_from_dict(data)

    def test_bad_subdivision_pairs(self):
        s = stellar(quadrant(), frozenset({0, 1}))
        for bad in ([0], [0, 1, 2], [-1, 0], [0, -1]):
            data = _json_round(subdivision_to_dict(s))
            data["cone_image"][-1] = bad
            with pytest.raises(SerializationError):
                subdivision_from_dict(data)

    def test_subdivision_image_contradicting_the_fans(self):
        s = stellar_at_point(quadrant(), (1, 1))
        assert s.image(frozenset(s.refined.max_cones[-1])) == frozenset({0, 1})
        data = _json_round(subdivision_to_dict(s))
        assert data["cone_image"][-1][1] == 3  # base cones: 0, {0}, {1}, {0, 1}
        data["cone_image"][-1][1] = 0
        with pytest.raises(SerializationError, match="cone_image disagrees"):
            subdivision_from_dict(data)

    def test_subdivision_base_unrelated_to_refined(self):
        data = _json_round(subdivision_to_dict(stellar_at_point(quadrant(), (1, 1))))
        data["base"] = complex_to_dict(ConeComplex(2, [(-1, 0), (0, -1)], [{0, 1}]))
        with pytest.raises(ComplexError, match="not supported inside"):
            subdivision_from_dict(data)

    def test_subdivision_refined_cone_across_base_cones(self):
        # cone((1, 1), (0, 1)) crosses the base ray (1, 2); its table entry
        # is the one the two fans determine
        base = ConeComplex(2, [(1, 0), (1, 2), (0, 1)], [{0, 1}, {1, 2}])
        refined = stellar_at_point(quadrant(), (1, 1)).refined
        data = _json_round(subdivision_to_dict(Subdivision(base, refined)))
        with pytest.raises(ComplexError, match="lies in no base cone"):
            subdivision_from_dict(data)

    def test_complex_cone_on_missing_ray(self):
        data = complex_to_dict(quadrant())
        data["max_cones"] = [[0, 5]]
        with pytest.raises(ComplexError):
            complex_from_dict(data)

    def test_type_cone_on_missing_ray(self):
        data = _json_round(type_to_dict(golden_type()))
        vertex = sorted(data["cone_of"]["vertices"])[0]
        data["cone_of"]["vertices"][vertex] = [0, 5]
        with pytest.raises(TypeProblem):
            type_from_dict(data)
