import argparse
import json
import os
import random
import subprocess
import sys

import pytest

from tropi.cli import main, run
from tropi.serialize import (
    catalogue_to_dict,
    complex_from_dict,
    complex_to_dict,
    lambda_to_dict,
    load_json,
    realization_from_dict,
    realization_to_dict,
    save_json,
    slopes_to_dict,
    subdivision_from_dict,
    subdivision_to_dict,
    type_from_dict,
    type_to_dict,
)
from tropi.combtypes import solve_balancing
from tropi.cones import ComplexError, ConeComplex
from tropi.enumeration import MAX_VERTICES, DegreeCatalogue
from tropi.render import render_dot
from tropi.smoothing import verify_realization
from tropi.subdivide import stellar

from fixtures import E1, E2, golden_lambda, golden_type, quadrant
from generators import (
    random_catalogue,
    random_complex,
    random_lambda,
    random_raw_type,
    random_realization,
)
from test_combtypes import bivalent_type, off_fan_type
from test_subdivide import HUGE_INDEX_CASES, orthant_4d
from test_smoothing import broken_face_type, ray_type


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["dir"] = str(tmp_path)
    paths["type"] = str(tmp_path / "type.json")
    save_json(paths["type"], type_to_dict(golden_type()))
    paths["solved"] = str(tmp_path / "solved.json")
    save_json(paths["solved"], type_to_dict(golden_type(with_slopes=True)))
    paths["target"] = str(tmp_path / "complex.json")
    save_json(paths["target"], complex_to_dict(quadrant()))
    paths["lambda"] = str(tmp_path / "lambda.json")
    save_json(paths["lambda"], lambda_to_dict(golden_lambda()))
    paths["catalogue"] = str(tmp_path / "cat.json")
    save_json(
        paths["catalogue"],
        catalogue_to_dict(DegreeCatalogue([(0, 0), (2, 2), (4, 4)], 3)),
    )
    paths["slopes"] = str(tmp_path / "slopes.json")
    save_json(paths["slopes"], slopes_to_dict([(1, 2), (2, 1)]))
    return paths


class TestBalance:
    def test_writes_solved_slopes(self, files):
        out = os.path.join(files["dir"], "balanced.json")
        assert main(["balance", "--type", files["type"], "--out", out, "--quiet"]) == 0
        t = type_from_dict(load_json(out))
        assert t.edge_slopes[E1] == (1, 2)
        assert t.edge_slopes[E2] == (2, 1)

    def test_defaults_to_input_path(self, files):
        assert main(["balance", "--type", files["type"], "--quiet"]) == 0
        t = type_from_dict(load_json(files["type"]))
        assert t.edge_slopes is not None


class TestValidateGathmann:
    def test_valid(self, files):
        assert main(["validate", "--type", files["solved"], "--quiet"]) == 0

    def test_invalid_exit_2(self, files):
        t = golden_type(with_slopes=True)
        t.edge_slopes[E1] = (-1, 2)
        bad = os.path.join(files["dir"], "bad.json")
        save_json(bad, type_to_dict(t))
        assert main(["validate", "--type", bad, "--quiet"]) == 2

    @pytest.mark.parametrize("edge", ["1/2", ["v1", "v1"], ["v1", "nowhere"]])
    def test_slope_off_the_tree_exit_2(self, files, edge):
        payload = load_json(files["solved"])
        payload["edge_slopes"][0][0] = edge
        bad = os.path.join(files["dir"], "bad.json")
        save_json(bad, payload)
        assert main(["validate", "--type", bad, "--quiet"]) == 2

    def test_gathmann_pass(self, files):
        assert main(["gathmann", "--type", files["solved"], "--quiet"]) == 0


class TestSmoothable:
    def test_golden_infeasible_exit_3(self, files):
        assert main(["smoothable", "--type", files["solved"], "--quiet"]) == 3

    def test_feasible_writes_realization(self, files):
        t = ray_type()
        t = t.with_slopes(solve_balancing(t))
        path = os.path.join(files["dir"], "ray_type.json")
        save_json(path, type_to_dict(t))
        out = os.path.join(files["dir"], "real.json")
        for method in ("lp", "construct", "both"):
            code = main(
                [
                    "smoothable",
                    "--type",
                    path,
                    "--method",
                    method,
                    "--out",
                    out,
                    "--quiet",
                ]
            )
            assert code == 0
            r = realization_from_dict(load_json(out))
            assert verify_realization(t, r).valid
            os.unlink(out)

    def test_vertex_cone_not_a_face_exit_2(self, files):
        path = os.path.join(files["dir"], "broken.json")
        save_json(path, type_to_dict(broken_face_type()))
        result = run(["smoothable", "--type", path, "--method", "both"])
        assert result.exit_code == 2
        assert "not a face" in result.summary


class TestSubdivisionCommands:
    def test_sensitize(self, files):
        out = os.path.join(files["dir"], "sub.json")
        code = main(
            [
                "sensitize",
                "--target",
                files["target"],
                "--slopes",
                files["slopes"],
                "--out",
                out,
                "--quiet",
            ]
        )
        assert code == 0
        sub = subdivision_from_dict(load_json(out))
        assert set(sub.refined.rays) == {(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)}

    def test_sensitize_overlapping_target_exit_2(self, files):
        # the payload of test_cones' test_overlapping_cones_rejected
        payload = {
            "ambient_dim": 2,
            "rays": [[1, 0], [0, 1], [1, 1], [1, -1]],
            "max_cones": [[0, 1], [2, 3]],
        }
        with pytest.raises(ComplexError):
            complex_from_dict(payload)
        target = os.path.join(files["dir"], "overlap.json")
        save_json(target, payload)
        out = os.path.join(files["dir"], "sub.json")
        result = run(
            ["sensitize", "--target", target, "--slopes", files["slopes"],
             "--out", out]
        )
        assert result.exit_code == 2
        assert "common face" in result.summary
        assert not os.path.exists(out)

    @pytest.mark.parametrize("rays, slopes", HUGE_INDEX_CASES)
    def test_sensitize_huge_lattice_index_exit_2(self, files, rays, slopes):
        target = os.path.join(files["dir"], "skewed.json")
        save_json(target, complex_to_dict(ConeComplex(3, rays, [range(3)])))
        slope_file = os.path.join(files["dir"], "skewed_slopes.json")
        save_json(slope_file, slopes_to_dict(slopes))
        out = os.path.join(files["dir"], "sub.json")
        proc = subprocess.run(
            [sys.executable, "-m", "tropi.cli", "sensitize", "--target", target,
             "--slopes", slope_file, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "validation error" in proc.stderr
        assert "MAX_WITNESS_INDEX" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not os.path.exists(out)

    def test_sensitize_four_dimensional_exit_0(self, files):
        target = os.path.join(files["dir"], "orthant.json")
        save_json(target, complex_to_dict(orthant_4d()))
        slope_file = os.path.join(files["dir"], "slopes4.json")
        save_json(slope_file, slopes_to_dict([(1, 2, 1, 1), (2, 1, 1, 1)]))
        out = os.path.join(files["dir"], "sub.json")
        proc = subprocess.run(
            [sys.executable, "-m", "tropi.cli", "sensitize", "--target", target,
             "--slopes", slope_file, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "595 rays, 2765 maximal cones" in proc.stdout
        assert os.path.exists(out)

    def test_sensitize_too_many_inserted_rays_exit_2(self, files):
        target = os.path.join(files["dir"], "cone.json")
        payload = {"ambient_dim": 2, "rays": [[1, 0], [1, 10**6]], "max_cones": [[0, 1]]}
        save_json(target, payload)
        slope_file = os.path.join(files["dir"], "no_slopes.json")
        save_json(slope_file, slopes_to_dict([]))
        out = os.path.join(files["dir"], "sub.json")
        proc = subprocess.run(
            [sys.executable, "-m", "tropi.cli", "sensitize", "--target", target,
             "--slopes", slope_file, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "validation error" in proc.stderr
        assert "MAX_INSERTED_RAYS" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not os.path.exists(out)

    def test_sensitize_for_data(self, files):
        out = os.path.join(files["dir"], "sub.json")
        code = main(
            [
                "sensitize-for-data",
                "--target",
                files["target"],
                "--lambda",
                files["lambda"],
                "--catalogue",
                files["catalogue"],
                "--out",
                out,
                "--quiet",
            ]
        )
        assert code == 0
        sub = subdivision_from_dict(load_json(out))
        assert (1, 2) in sub.refined.rays and (2, 1) in sub.refined.rays

    def test_lift_lambda(self, files):
        sub_path = os.path.join(files["dir"], "stellar.json")
        from tropi.serialize import subdivision_to_dict

        save_json(
            sub_path, subdivision_to_dict(stellar(quadrant(), frozenset(range(2))))
        )
        out = os.path.join(files["dir"], "lifted.json")
        code = main(
            [
                "lift-lambda",
                "--subdivision",
                sub_path,
                "--lambda",
                files["lambda"],
                "--out",
                out,
                "--quiet",
            ]
        )
        assert code == 0
        lifted = load_json(out)
        assert sorted(lifted["total_degree"]) == [1, 1, 3]

    def test_pushforward(self, files):
        sub_path = os.path.join(files["dir"], "ident.json")
        from tropi.serialize import subdivision_to_dict
        from tropi.subdivide import identity_subdivision

        save_json(sub_path, subdivision_to_dict(identity_subdivision(quadrant())))
        out = os.path.join(files["dir"], "pushed.json")
        code = main(
            [
                "pushforward",
                "--subdivision",
                sub_path,
                "--type",
                files["solved"],
                "--out",
                out,
                "--quiet",
            ]
        )
        assert code == 0
        t = type_from_dict(load_json(out))
        assert set(t.graph.vertices) == {"v1", "v2", "v3"}

    def test_pushforward_cone_not_in_refined_fan_exit_2(self, files):
        sub = stellar(quadrant(), frozenset({0, 1}))
        sub_path = os.path.join(files["dir"], "stellar.json")
        save_json(sub_path, subdivision_to_dict(sub))
        type_path = os.path.join(files["dir"], "off_fan.json")
        save_json(type_path, type_to_dict(off_fan_type(sub.refined)))
        out = os.path.join(files["dir"], "pushed.json")
        result = run(
            ["pushforward", "--subdivision", sub_path, "--type", type_path,
             "--out", out]
        )
        assert result.exit_code == 2
        assert "[0, 1] is not a cone" in result.summary
        assert not os.path.exists(out)

    def _pushforward_tampered(self, files, edit):
        sub, t = bivalent_type()
        data = subdivision_to_dict(sub)
        edit(data)
        sub_path = os.path.join(files["dir"], "tampered.json")
        save_json(sub_path, data)
        type_path = os.path.join(files["dir"], "bivalent.json")
        save_json(type_path, type_to_dict(t))
        out = os.path.join(files["dir"], "pushed.json")
        result = run(
            ["pushforward", "--subdivision", sub_path, "--type", type_path,
             "--out", out]
        )
        assert not os.path.exists(out)
        return result

    def test_pushforward_image_contradicting_the_fans_exit_1(self, files):
        def to_origin(data):
            # the ray (1, 1) is the first refined cone inside the base's
            # two-cone (base cone 3); point it at the origin instead
            next(p for p in data["cone_image"] if p[1] == 3)[1] = 0

        result = self._pushforward_tampered(files, to_origin)
        assert result.exit_code == 1
        assert "cone_image disagrees" in result.summary

    def test_pushforward_base_unrelated_to_refined_exit_2(self, files):
        def unrelated(data):
            data["base"] = complex_to_dict(
                ConeComplex(2, [(-1, 0), (0, -1)], [{0, 1}])
            )

        result = self._pushforward_tampered(files, unrelated)
        assert result.exit_code == 2
        assert "not supported inside" in result.summary


class TestEnumerate:
    def test_writes_types_and_index(self, files):
        out = os.path.join(files["dir"], "types")
        code = main(
            [
                "enumerate",
                "--target",
                files["target"],
                "--lambda",
                files["lambda"],
                "--catalogue",
                files["catalogue"],
                "--out",
                out,
                "--quiet",
            ]
        )
        assert code == 0
        index = load_json(os.path.join(out, "index.json"))
        assert index["count"] == len(index["types"]) > 0
        first = type_from_dict(load_json(os.path.join(out, index["types"][0])))
        assert first.edge_slopes is not None

    def test_empty_result_exit_3(self, files):
        empty_cat = os.path.join(files["dir"], "empty_cat.json")
        save_json(empty_cat, {"atoms": [[1, 0]], "max_vertices": 1})
        out = os.path.join(files["dir"], "none")
        code = main(
            [
                "enumerate",
                "--target",
                files["target"],
                "--lambda",
                files["lambda"],
                "--catalogue",
                empty_cat,
                "--out",
                out,
                "--quiet",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["enumerate", "sensitize-for-data"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_total_degree_of_wrong_length_exit_2(self, files, command, length):
        lam = lambda_to_dict(golden_lambda())
        lam["total_degree"] = [4] * length
        path = os.path.join(files["dir"], "lambda_bad.json")
        save_json(path, lam)
        result = run(
            [command, "--target", files["target"], "--lambda", path,
             "--catalogue", files["catalogue"],
             "--out", os.path.join(files["dir"], "out")]
        )
        assert result.exit_code == 2
        assert "degree vector" in result.summary

    @pytest.mark.parametrize("command", ["enumerate", "sensitize-for-data"])
    def test_wrong_length_before_tangency_outside_support(self, files, command):
        # a lambda with both faults is invalid (2), not an empty result (3)
        lam = os.path.join(files["dir"], "lambda_bad.json")
        save_json(lam, {"n": 1, "alphas": [[-1, 0]], "total_degree": [1]})
        cat = os.path.join(files["dir"], "cat_zero.json")
        save_json(cat, catalogue_to_dict(DegreeCatalogue([(0, 0)], 2)))
        out = os.path.join(files["dir"], "out")
        result = run(
            [command, "--target", files["target"], "--lambda", lam,
             "--catalogue", cat, "--out", out]
        )
        assert result.exit_code == 2
        assert "degree vector" in result.summary
        assert not os.path.exists(out)


    @pytest.mark.parametrize("command", ["enumerate", "sensitize-for-data"])
    @pytest.mark.parametrize("max_vertices", [7, 1000])
    def test_max_vertices_above_the_limit_exit_2(self, files, command, max_vertices):
        # 7 vertices on the golden data take about 23 s; the catalogue stops it
        cat = os.path.join(files["dir"], "cat_big.json")
        save_json(cat, {"atoms": [[0, 0], [2, 2], [4, 4]], "max_vertices": max_vertices})
        out = os.path.join(files["dir"], "out")
        result = run(
            [command, "--target", files["target"], "--lambda", files["lambda"],
             "--catalogue", cat, "--out", out]
        )
        assert result.exit_code == 2
        assert f"max_vertices must be between 1 and {MAX_VERTICES}" in result.summary
        assert not os.path.exists(out)


class TestRenderCommand:
    def test_dot_stdout(self, files, capsys):
        """The document alone goes to stdout, the summary to stderr."""
        assert main(["render", "--type", files["solved"]]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert out.startswith("graph")
        assert "(1, 2)" in out
        assert out == render_dot(golden_type(with_slopes=True))
        assert captured.err == "rendered dot\n"

    def test_svg_file(self, files):
        out = os.path.join(files["dir"], "t.svg")
        code = main(
            ["render", "--type", files["solved"], "--format", "svg", "--out", out, "--quiet"]
        )
        assert code == 0
        assert open(out).read().startswith("<svg")


def _help_text(argv) -> str:
    """The help argparse prints for argv's parser."""
    from tropi.cli import _PARSER

    parser = _PARSER
    if argv[0] != "--help":
        (sub,) = [a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[argv[0]]
    return parser.format_help()


class TestPlumbing:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_subcommand_exit_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"]])
    def test_help_exit_0_ends_with_help(self, capsys, argv):
        """The help is the whole of standard output, with no summary after it."""
        assert main(argv) == 0
        assert capsys.readouterr().out == _help_text(argv)
        assert run(argv).summary == ""
        capsys.readouterr()

    def test_missing_file_exit_1(self):
        assert main(["validate", "--type", "/no/such/file.json", "--quiet"]) == 1

    def test_selftest(self):
        assert main(["selftest", "--quiet"]) == 0

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tropi.cli", "selftest"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "selftest passed" in proc.stdout

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("command", ["render", "validate"])
    def test_closed_stdout_exit_1(self, files, command, unbuffered):
        """A reader that has gone gives exit 1, not a traceback: the payload
        write fails in render, the summary write in validate."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tropi.cli", command, "--type",
                 files["solved"]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_result_object(self, files):
        result = run(["validate", "--type", files["solved"]])
        assert result.exit_code == 0
        assert result.summary


_JUNK = [None, True, -1, 0, 7, "x", "1/2", [], [0], [-1], [0, 1, 2], [["a"]], {}]


def _mutated(rng, payload):
    """A copy of a JSON payload with one random node replaced or deleted."""
    data = json.loads(json.dumps(payload))
    parent, key, node = None, None, data
    while isinstance(node, (dict, list)) and node:
        if parent is not None and rng.random() < 0.25:
            break
        parent = node
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        node = node[key]
    if parent is None:  # an empty payload: replace it whole
        return rng.choice(_JUNK)
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = rng.choice(_JUNK)
    return data


def _above_vertex_limit(catalogue) -> bool:
    limit = catalogue.get("max_vertices") if isinstance(catalogue, dict) else None
    return type(limit) is int and limit > MAX_VERTICES


class TestMutatedPayloads:
    def test_documented_exit_codes_only(self, files):
        """Mutated golden payloads exit 0, 1, 2 or 3; none raises."""
        rng = random.Random(17)
        sources = [load_json(files["type"]), load_json(files["solved"])]
        subdivision = subdivision_to_dict(stellar(quadrant(), frozenset({0, 1})))
        path = os.path.join(files["dir"], "mutated.json")
        out = os.path.join(files["dir"], "out.json")
        commands = [
            ["validate", "--type", path],
            ["balance", "--type", path, "--out", out],
            ["gathmann", "--type", path],
            ["smoothable", "--type", path, "--method", "both"],
            ["render", "--type", path, "--out", out],
            ["lift-lambda", "--subdivision", path, "--lambda", files["lambda"],
             "--out", out],
        ]
        codes = set()
        for i in range(300):
            argv = commands[i % len(commands)]
            payload = subdivision if argv[0] == "lift-lambda" else sources[i % 2]
            for _ in range(1 + rng.randrange(2)):
                payload = _mutated(rng, payload)
            save_json(path, payload)
            code = run(argv).exit_code
            assert code in {0, 1, 2, 3}, (argv[0], payload)
            codes.add(code)
        assert {1, 2} <= codes

    def test_documented_exit_codes_data_commands(self, files):
        """Mutated subdivisions, refined types, targets, slopes, numerical
        data and catalogues through pushforward, sensitize, enumerate and
        sensitize-for-data exit 0, 1, 2 or 3; none raises.  The catalogue
        has the golden atoms and at most two vertices, unless mutated: one
        whose max_vertices became the junk 7 exits 2 (1 if its atoms are
        malformed too).  This seed draws a type cone outside the refined
        fan for pushforward and a degree vector of the wrong length for
        enumerate."""
        rng = random.Random(10)
        sub, refined_type = bivalent_type()
        pristine = {
            "subdivision": subdivision_to_dict(sub),
            "type": type_to_dict(refined_type),
            "target": load_json(files["target"]),
            "slopes": load_json(files["slopes"]),
            "lambda": load_json(files["lambda"]),
            "catalogue": catalogue_to_dict(
                DegreeCatalogue([(0, 0), (2, 2), (4, 4)], 2)
            ),
        }
        paths = {k: os.path.join(files["dir"], f"{k}.json") for k in pristine}
        for name, payload in pristine.items():
            save_json(paths[name], payload)
        mutated = os.path.join(files["dir"], "mutated.json")
        commands = [
            ["pushforward", "--subdivision", "subdivision", "--type", "type"],
            ["sensitize", "--target", "target", "--slopes", "slopes"],
            ["enumerate", "--target", "target", "--lambda", "lambda",
             "--catalogue", "catalogue"],
            ["sensitize-for-data", "--target", "target", "--lambda", "lambda",
             "--catalogue", "catalogue"],
        ]
        codes = {}
        over_limit = 0

        def attempt(argv, name, rng):
            nonlocal over_limit
            payload = pristine[name]
            for _ in range(1 + rng.randrange(2)):
                payload = _mutated(rng, payload)
            save_json(mutated, payload)
            argv = [mutated if a == name else paths.get(a, a) for a in argv]
            argv += ["--out", os.path.join(files["dir"], argv[0])]
            code = run(argv).exit_code
            assert code in {0, 1, 2, 3}, (argv[0], name, payload)
            if name == "catalogue" and _above_vertex_limit(payload):
                # refused before any search; 1 when the atoms are malformed too
                intact = payload.get("atoms") == pristine["catalogue"]["atoms"]
                assert (code == 2) if intact else (code in {1, 2}), (argv[0], payload)
                over_limit += 1
            codes.setdefault((argv[0], name == "catalogue"), set()).add(code)

        # the payload at argv[2] or argv[4] is the one mutated
        for i in range(400):
            argv = commands[i % len(commands)]
            attempt(argv, argv[2 + 2 * (i // len(commands) % 2)], rng)
        # catalogues on a stream of their own, so the draws above stay as
        # they were
        catalogue_rng = random.Random(11)
        for i in range(100):
            attempt(commands[2 + i % 2], "catalogue", catalogue_rng)
        assert len(codes) == 6
        assert all({1, 2} <= c for c in codes.values()), codes
        assert over_limit, "no catalogue was mutated past the vertex limit"

    def test_documented_exit_codes_generated_payloads(self, files):
        """Seeded random payloads from the test generators, one of them
        mutated, through all ten payload commands exit 0, 1, 2 or 3; none
        raises.  Catalogues allow at most two vertices, unless mutated: one
        whose max_vertices became the junk 7 must exit 2 from enumerate and
        sensitize-for-data."""
        rng = random.Random(23)
        names = ["target", "type", "lambda", "realization", "subdivision",
                 "slopes", "catalogue"]
        paths = {k: os.path.join(files["dir"], f"{k}.json") for k in names}
        out = os.path.join(files["dir"], "out.json")
        commands = [
            ["validate", "--type", "type"],
            ["balance", "--type", "type", "--out", out],
            ["gathmann", "--type", "type"],
            ["smoothable", "--type", "type", "--method", "both", "--out", out],
            ["render", "--type", "type", "--realization", "realization",
             "--out", out],
            ["lift-lambda", "--subdivision", "subdivision", "--lambda", "lambda",
             "--out", out],
            ["pushforward", "--subdivision", "subdivision", "--type", "type",
             "--out", out],
            ["sensitize", "--target", "target", "--slopes", "slopes", "--out", out],
            ["enumerate", "--target", "target", "--lambda", "lambda",
             "--catalogue", "catalogue", "--out", os.path.join(files["dir"], "types")],
            ["sensitize-for-data", "--target", "target", "--lambda", "lambda",
             "--catalogue", "catalogue", "--out", out],
        ]
        codes = {}
        over_limit = 0
        for _ in range(150):
            fan = random_complex(rng)
            t = random_raw_type(rng, fan)
            k = fan.ambient_dim
            cat = random_catalogue(rng, len(fan.rays))
            sigma = rng.choice(sorted((c for c in fan.cones() if c), key=sorted))
            payloads = {
                "target": complex_to_dict(fan),
                "type": type_to_dict(t),
                "lambda": lambda_to_dict(random_lambda(rng, fan)),
                "realization": realization_to_dict(random_realization(rng, t)),
                "subdivision": subdivision_to_dict(stellar(fan, sigma)),
                "slopes": slopes_to_dict(
                    [tuple(rng.randint(-2, 3) for _ in range(k))
                     for _ in range(rng.randint(1, 2))]
                ),
                "catalogue": catalogue_to_dict(DegreeCatalogue(cat.atoms, 2)),
            }
            name = rng.choice(names)
            payloads[name] = _mutated(rng, payloads[name])
            too_big = _above_vertex_limit(payloads["catalogue"])
            over_limit += too_big
            for key, payload in payloads.items():
                save_json(paths[key], payload)
            for argv in commands:
                code = run([paths.get(a, a) for a in argv]).exit_code
                assert code in {0, 1, 2, 3}, (argv[0], name, payloads)
                if too_big and "--catalogue" in argv:
                    assert code == 2, (argv[0], payloads["catalogue"])
                codes.setdefault(argv[0], set()).add(code)
        assert all({1, 2} <= c for c in codes.values()), codes
        assert sum(0 in c for c in codes.values()) >= 9, codes
        assert over_limit, "no catalogue was mutated past the vertex limit"
