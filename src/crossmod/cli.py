"""Command-line front end: check | build | eval | verify | demo.

Exit codes: 0 pass, 1 axiom/verification failure, 2 malformed input.
All output is deterministic: JSON with sorted keys, canonical scalar strings.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import verify
from .algebras import (
    check_algebra_morphism,
    check_crossed_algebra,
    group_algebra_C,
    group_algebra_P,
    kp_iso_witness,
    pullback,
    pushforward,
)
from .crossed_modules import CrossedModuleMismatch, check_crossed_module
from .fields import ScalarParseError, field_from_json
from .formal_maps import typecheck
from .hqft import eval_expression, make_hqft, require_same_crossed_module, state_space
from .mutations import MUTATIONS, run_mutation
from .serialize import (
    CHECKABLE,
    SerializationError,
    UnknownObject,
    Workspace,
    check_doc,
    dumps,
    load_file,
    read_doc,
    to_doc,
)

def _workspace(args) -> Workspace:
    field = field_from_json(getattr(args, "field", "Q") or "Q")
    ws = Workspace(field)
    fixtures_dir = getattr(args, "fixtures_dir", None)
    if fixtures_dir:
        ws.load_dir(fixtures_dir)
    return ws


def _load_target(ws: Workspace, kind: str, target: str):
    if Path(target).is_file():
        return load_file(target, ws, kind)[2]
    return ws.get(target, kind)


def cmd_check(args) -> int:
    ws = _workspace(args)
    kind = args.kind.replace("-", "_")
    if Path(args.target).is_file():
        report = check_doc(read_doc(args.target), ws, kind)
    else:
        report = CHECKABLE[kind](ws.get(args.target, kind))
    print(dumps(report.to_json()), end="")
    return 0 if report.ok else 1


def _write_out(args, doc) -> None:
    text = dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


# construction -> (kind of the result, number of inputs, its constructor on
# the workspace and inputs, whether that constructor checks its result itself
# and raises on one that fails: pushforward runs check_crossed_algebra, and
# kp_iso_witness checks its blocks over an identity morphism checked as built)
CONSTRUCTIONS = {
    "kC": ("algebra", 1,
           lambda ws, a: group_algebra_C(ws.get(a[0], "crossed_module"), ws.field), False),
    "kP": ("algebra", 1,
           lambda ws, a: group_algebra_P(ws.get(a[0], "crossed_module"), ws.field), False),
    "pullback": ("algebra", 2, lambda ws, a: pullback(ws.get(a[0], "morphism"),
                                                      _load_target(ws, "algebra", a[1])), False),
    "pushforward": ("algebra", 2, lambda ws, a: pushforward(ws.get(a[0], "morphism"),
                                                            _load_target(ws, "algebra", a[1])),
                    True),
    "kp_iso": ("algebra_morphism", 1,
               lambda ws, a: kp_iso_witness(ws.get(a[0], "crossed_module"), ws.field), True),
}


def cmd_build(args) -> int:
    ws = _workspace(args)
    kind, n_inputs, build, checked = CONSTRUCTIONS[args.construction]
    if len(args.args) != n_inputs:
        raise SerializationError(f"{args.construction} takes {n_inputs} input(s), "
                                 f"got {len(args.args)}")
    try:
        obj = build(ws, args.args)
        rep = None if checked else CHECKABLE[kind](obj)
    except (SerializationError, ScalarParseError, CrossedModuleMismatch):
        raise       # malformed input: main maps it to 2
    except ValueError as exc:   # a construction that fails, such as RhoIllDefined
        print(dumps({"error": str(exc)}), end="")
        return 1
    if rep is not None and not rep.ok:
        print(dumps(rep.to_json()), end="")
        return 1
    _write_out(args, to_doc(kind, obj))
    return 0


def cmd_eval(args) -> int:
    ws = _workspace(args)
    alg = _load_target(ws, "algebra", args.algebra)
    expr = _load_target(ws, "expression", args.expression)
    require_same_crossed_module(expr, alg.cm)   # malformed input, whether or not the algebra passes
    rep = check_crossed_algebra(alg)
    if not rep.ok:
        print(dumps(rep.to_json()), end="")
        return 1
    tau = make_hqft(alg)
    tc = typecheck(expr)
    if not tc.ok:
        print(dumps(tc.to_json()), end="")
        return 1
    result = eval_expression(tau, expr)
    doc = {
        "source_dims": list(state_space(tau, expr.source)),
        "target_dims": list(state_space(tau, expr.target)),
        "matrix": result.matrix.to_json(),
    }
    _write_out(args, doc)
    return 0


def cmd_verify(args) -> int:
    if args.mutate:
        detection = run_mutation(args.mutate)
        status = "detected" if detection.detected else "NOT DETECTED"
        print(f"mutation {detection.mutation} [{detection.family}]: {status}"
              + (f" at {detection.instance}" if detection.detected else ""))
        return 1 if detection.detected else 0
    return verify.run_suite(args.suite)


def cmd_demo(args) -> int:
    ws = _workspace(args)
    cm = ws.get("CM-A3S3", "crossed_module")
    print("# crossed module CM-A3S3 (A3 normal in S3, conjugation action)")
    rep = check_crossed_module(cm)
    print(f"axiom check: {'pass' if rep.ok else 'fail'}")
    alg = ws.get("KC.CM-A3S3", "algebra")
    print(f"# its top-group algebra: grade dims {alg.dims}")
    rep = check_crossed_algebra(alg)
    print(f"algebra checker: {'pass' if rep.ok else 'fail'}")
    tau = make_hqft(alg)
    from .formal_maps import Cyl, Disc, expression
    e = expression(cm, [], [[Disc(1)], [Cyl(0, cm.d(1), 1)]],
                   [cm.base.conj(cm.base.inv[1], cm.d(1))])
    out = eval_expression(tau, e)
    print("# evaluating a disc pushed through a cylinder:")
    print(dumps({"matrix": out.matrix.to_json()}), end="")
    witness = kp_iso_witness(cm, ws.field)
    print(f"# section/cocycle isomorphism K[P] ~ q*(K[G]): "
          f"{'pass' if check_algebra_morphism(witness).ok else 'fail'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; parsing
    leaves it unchanged, so every call of `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="crossmod",
        description="finite crossed modules, crossed algebras, and the formal "
                    "two-dimensional field theory calculus over them")
    parser.add_argument("--field", default="Q",
                        help="scalar field: Q (default) or Fp:<prime>")
    parser.add_argument("--fixtures-dir", default=None,
                        help="directory of JSON object files to preload")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checker for an object")
    p.add_argument("kind", choices=sorted(kind.replace("_", "-") for kind in CHECKABLE))
    p.add_argument("target", help="object name or JSON file path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="run a construction and emit its JSON")
    p.add_argument("construction", choices=list(CONSTRUCTIONS))
    p.add_argument("args", nargs="+", help="construction inputs (names or files)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate an expression against an algebra")
    p.add_argument("algebra", help="algebra name or file")
    p.add_argument("expression", help="expression file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run acceptance suites on built-in fixtures")
    p.add_argument("suite", nargs="?", default="all", choices=list(verify.SUITES))
    p.add_argument("--mutate", default=None, choices=sorted(MUTATIONS),
                   help="inject a named mutation; exits 1 when it is detected")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="small guided tour on the fixtures")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SerializationError, UnknownObject, ScalarParseError, CrossedModuleMismatch) as exc:
        # malformed input; args[0], since str() of a KeyError such as
        # UnknownObject quotes its message
        print(dumps({"error": str(exc.args[0])}), end="")
        return 2


if __name__ == "__main__":
    sys.exit(main())
