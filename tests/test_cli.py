import json
import os
import subprocess
import sys

import pytest

from tropi.cli import main, run
from tropi.serialize import (
    catalogue_to_dict,
    complex_to_dict,
    lambda_to_dict,
    load_json,
    realization_from_dict,
    save_json,
    slopes_to_dict,
    subdivision_from_dict,
    type_from_dict,
    type_to_dict,
)
from tropi.combtypes import solve_balancing
from tropi.enumeration import DegreeCatalogue
from tropi.smoothing import verify_realization
from tropi.subdivide import stellar

from fixtures import E1, E2, golden_lambda, golden_type, quadrant
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


class TestRenderCommand:
    def test_dot_stdout(self, files, capsys):
        assert main(["render", "--type", files["solved"], "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph")
        assert "(1, 2)" in out

    def test_svg_file(self, files):
        out = os.path.join(files["dir"], "t.svg")
        code = main(
            ["render", "--type", files["solved"], "--format", "svg", "--out", out, "--quiet"]
        )
        assert code == 0
        assert open(out).read().startswith("<svg")


class TestPlumbing:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_subcommand_exit_1(self, capsys):
        assert main([]) == 1
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

    def test_result_object(self, files):
        result = run(["validate", "--type", files["solved"]])
        assert result.exit_code == 0
        assert result.summary
