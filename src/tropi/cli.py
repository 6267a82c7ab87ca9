"""Command-line front end.

Exit codes: 0 success, 1 usage or I/O error, 2 validation failure,
3 infeasible or empty result.  All file payloads are written atomically.
A command that writes its payload to standard output prints its summary
to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .combtypes import (
    TypeProblem,
    check_gathmann,
    lift_numerical_data,
    pushforward_type,
    solve_balancing,
    validate_type,
)
from .cones import ComplexError
from .enumeration import (
    MAX_VERTICES,
    canonical_code,
    enumerate_types,
    sensitize_for_data,
)
from .linalg import LinAlgError, is_unimodular
from .render import RenderError, render
from .serialize import (
    SerializationError,
    catalogue_from_dict,
    complex_from_dict,
    lambda_from_dict,
    lambda_to_dict,
    load_json,
    realization_from_dict,
    realization_to_dict,
    save_json,
    save_text,
    slopes_from_dict,
    subdivision_from_dict,
    subdivision_to_dict,
    type_from_dict,
    type_to_dict,
)
from .smoothing import (
    check_sensitivity_consequences,
    smooth_construct,
    smoothable_lp,
    verify_realization,
)
from .subdivide import sensitize
from . import worked_example


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    summary: str
    payload_path: Optional[str] = None  # "-" for standard output


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tropi",
        description=(
            "Exact combinatorics of genus-zero tropical stable maps: "
            "balancing, validity, smoothability, and fan subdivisions."
        ),
    )
    p.add_argument("--quiet", action="store_true", help="suppress summaries")
    sub = p.add_subparsers(dest="command")

    catalogue_help = (
        f"degree catalogue; max_vertices is at most {MAX_VERTICES}, "
        "a larger value exits 2"
    )

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--quiet", action="store_true")
        return sp

    sp = add("balance", "solve the balancing equations for a type")
    sp.add_argument("--type", dest="type_path", required=True)
    sp.add_argument("--out", default=None)

    sp = add("validate", "run all validity checks on a type")
    sp.add_argument("--type", dest="type_path", required=True)

    sp = add("gathmann", "run the per-divisor bookkeeping check")
    sp.add_argument("--type", dest="type_path", required=True)

    sp = add("smoothable", "decide smoothability of a type")
    sp.add_argument("--type", dest="type_path", required=True)
    sp.add_argument("--method", choices=["lp", "construct", "both"], default="lp")
    sp.add_argument("--out", default=None)

    sp = add("sensitize", "refine a fan to carry the given slopes as rays")
    sp.add_argument("--target", required=True)
    sp.add_argument("--slopes", required=True)
    sp.add_argument("--out", required=True)

    sp = add("sensitize-for-data", "enumerate slopes for data, then sensitize")
    sp.add_argument("--target", required=True)
    sp.add_argument("--lambda", dest="lam_path", required=True)
    sp.add_argument("--catalogue", required=True, help=catalogue_help)
    sp.add_argument("--out", required=True)

    sp = add("enumerate", "enumerate all valid types for the given data")
    sp.add_argument("--target", required=True)
    sp.add_argument("--lambda", dest="lam_path", required=True)
    sp.add_argument("--catalogue", required=True, help=catalogue_help)
    sp.add_argument("--out", required=True, help="output directory")

    sp = add("pushforward", "push a type forward along a subdivision")
    sp.add_argument("--subdivision", required=True)
    sp.add_argument("--type", dest="type_path", required=True)
    sp.add_argument("--out", required=True)

    sp = add("lift-lambda", "transport numerical data along a stellar step")
    sp.add_argument("--subdivision", required=True)
    sp.add_argument("--lambda", dest="lam_path", required=True)
    sp.add_argument("--out", required=True)

    sp = add("render", "render a type (and realization) as DOT or SVG")
    sp.add_argument("--type", dest="type_path", required=True)
    sp.add_argument("--realization", default=None)
    sp.add_argument("--format", dest="fmt", choices=["dot", "svg"], default="dot")
    sp.add_argument("--out", default=None)

    add("selftest", "run the worked-example golden suite")
    return p


# -- subcommand bodies --------------------------------------------------------


def _load_type(path):
    return type_from_dict(load_json(path))


def _cmd_balance(args) -> CommandResult:
    t = _load_type(args.type_path)
    slopes = solve_balancing(t)
    t = t.with_slopes(slopes)
    out = args.out or args.type_path
    save_json(out, type_to_dict(t))
    shown = ", ".join(
        f"{e[0]}-{e[1]}: {tuple(m)}" for e, m in sorted(slopes.items())
    )
    return CommandResult(0, f"balanced: {shown or 'no edges'}", out)


def _cmd_validate(args) -> CommandResult:
    t = _load_type(args.type_path)
    report = validate_type(t)
    if report.valid:
        return CommandResult(0, "valid")
    details = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
    return CommandResult(2, f"invalid: {details}")


def _cmd_gathmann(args) -> CommandResult:
    t = _load_type(args.type_path)
    if t.edge_slopes is None:
        t = t.with_slopes(solve_balancing(t))
    if check_gathmann(t):
        return CommandResult(0, "bookkeeping check passed")
    return CommandResult(2, "bookkeeping check failed")


def _cmd_smoothable(args) -> CommandResult:
    t = _load_type(args.type_path)
    if t.edge_slopes is None:
        t = t.with_slopes(solve_balancing(t))
    witness = None
    verdicts = {}
    if args.method in ("lp", "both"):
        witness = smoothable_lp(t)
        verdicts["lp"] = witness is not None
    if args.method in ("construct", "both"):
        constructed = None
        if check_sensitivity_consequences(t).passed:
            constructed = smooth_construct(t)
        ok = constructed is not None and verify_realization(t, constructed).valid
        verdicts["construct"] = ok
        if ok and witness is None:
            witness = constructed
    if len(set(verdicts.values())) > 1:
        return CommandResult(
            1, f"methods disagree: {verdicts} (this is a bug; please report)"
        )
    feasible = next(iter(verdicts.values()))
    if not feasible:
        return CommandResult(3, "not smoothable")
    out = args.out
    if out:
        save_json(out, realization_to_dict(witness))
    return CommandResult(0, "smoothable", out)


def _cmd_sensitize(args) -> CommandResult:
    target = complex_from_dict(load_json(args.target))
    slopes = slopes_from_dict(load_json(args.slopes))
    sub = sensitize(target, slopes)
    save_json(args.out, subdivision_to_dict(sub))
    return CommandResult(
        0,
        f"refined fan has {len(sub.refined.rays)} rays, "
        f"{len(sub.refined.max_cones)} maximal cones",
        args.out,
    )


def _cmd_sensitize_for_data(args) -> CommandResult:
    target = complex_from_dict(load_json(args.target))
    lam = lambda_from_dict(load_json(args.lam_path))
    cat = catalogue_from_dict(load_json(args.catalogue))
    sub = sensitize_for_data(target, lam, cat)
    save_json(args.out, subdivision_to_dict(sub))
    return CommandResult(
        0, f"refined fan has {len(sub.refined.rays)} rays", args.out
    )


def _cmd_enumerate(args) -> CommandResult:
    target = complex_from_dict(load_json(args.target))
    lam = lambda_from_dict(load_json(args.lam_path))
    cat = catalogue_from_dict(load_json(args.catalogue))
    types = enumerate_types(target, lam, cat)
    os.makedirs(args.out, exist_ok=True)
    names = []
    for i, t in enumerate(types):
        name = f"type_{i:04d}.json"
        save_json(os.path.join(args.out, name), type_to_dict(t))
        names.append(name)
    index = os.path.join(args.out, "index.json")
    save_json(index, {"count": len(types), "types": names})
    if not types:
        return CommandResult(3, "no valid types", index)
    return CommandResult(0, f"wrote {len(types)} types", index)


def _cmd_pushforward(args) -> CommandResult:
    sub = subdivision_from_dict(load_json(args.subdivision))
    t = _load_type(args.type_path)
    out_type = pushforward_type(sub, t)
    save_json(args.out, type_to_dict(out_type))
    return CommandResult(
        0, f"pushed forward to {len(out_type.graph.vertices)} vertices", args.out
    )


def _cmd_lift_lambda(args) -> CommandResult:
    sub = subdivision_from_dict(load_json(args.subdivision))
    lam = lambda_from_dict(load_json(args.lam_path))
    lifted = lift_numerical_data(sub, lam)
    save_json(args.out, lambda_to_dict(lifted))
    return CommandResult(0, "lifted numerical data", args.out)


def _cmd_render(args) -> CommandResult:
    t = _load_type(args.type_path)
    r = None
    if args.realization:
        r = realization_from_dict(load_json(args.realization))
    text = render(t, r, args.fmt)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        save_text(args.out, text)
        return CommandResult(0, f"wrote {args.fmt} to {args.out}", args.out)
    sys.stdout.write(text)
    return CommandResult(0, f"rendered {args.fmt}", "-")


def _cmd_selftest(args) -> CommandResult:
    failures = []

    t = worked_example.example_type()
    slopes = solve_balancing(t)
    if not (
        slopes[worked_example.E1] == (1, 2)
        and slopes[worked_example.E2] == (2, 1)
    ):
        failures.append(f"balancing: got {slopes}")
    t = t.with_slopes(slopes)
    if not validate_type(t).valid:
        failures.append("validity check failed on the worked example")
    if not check_gathmann(t):
        failures.append("bookkeeping check failed on the worked example")
    if smoothable_lp(t) is not None:
        failures.append("worked example reported smoothable; it is not")
    report = check_sensitivity_consequences(t)
    if report.passed:
        failures.append("sensitivity consequences unexpectedly passed")

    sub = sensitize(worked_example.quadrant(), [(1, 2), (2, 1)])
    rays = set(sub.refined.rays)
    expected = {(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)}
    if rays != expected:
        failures.append(f"sensitization rays: got {sorted(rays)}")
    for mc in sub.refined.max_cones:
        if not is_unimodular(sub.refined.generators(mc)):
            failures.append(f"non-unimodular cone {sorted(mc)} after sensitize")

    types = enumerate_types(
        worked_example.quadrant(),
        worked_example.example_data(),
        worked_example.example_catalogue(),
    )
    codes = [canonical_code(x) for x in types]
    if len(codes) != len(set(codes)):
        failures.append("duplicate canonical codes in enumeration")
    if canonical_code(t) not in codes:
        failures.append("worked-example type missing from enumeration")

    if failures:
        return CommandResult(2, "selftest FAILED: " + "; ".join(failures))
    return CommandResult(0, "selftest passed (worked-example golden suite)")


_COMMANDS = {
    "balance": _cmd_balance,
    "validate": _cmd_validate,
    "gathmann": _cmd_gathmann,
    "smoothable": _cmd_smoothable,
    "sensitize": _cmd_sensitize,
    "sensitize-for-data": _cmd_sensitize_for_data,
    "enumerate": _cmd_enumerate,
    "pushforward": _cmd_pushforward,
    "lift-lambda": _cmd_lift_lambda,
    "render": _cmd_render,
    "selftest": _cmd_selftest,
}


_PARSER = _parser()


def run(argv) -> CommandResult:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (exit 0) or the usage error itself
        return CommandResult(0, "") if exc.code == 0 else CommandResult(1, "usage error")
    if args.command is None:
        return CommandResult(1, _PARSER.format_usage().strip())
    try:
        return _COMMANDS[args.command](args)
    except (SerializationError, OSError) as exc:
        return CommandResult(1, f"error: {exc}")
    except (TypeProblem, ComplexError, LinAlgError, RenderError) as exc:
        return CommandResult(2, f"validation error: {exc}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    quiet = "--quiet" in argv
    result = run(argv)
    to_stdout = result.exit_code == 0 and result.payload_path != "-"
    try:
        if not quiet and result.summary:
            print(result.summary, file=sys.stdout if to_stdout else sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the interpreter's
        # own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
