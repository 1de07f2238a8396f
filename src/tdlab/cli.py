"""Command-line front end.

Subcommands: generate, verify, decompose, export.  All output is
deterministic; reports are line-oriented JSON, one record per check.

Exit codes: 0 all-pass, 1 check failure, 2 invalid input or parameters,
3 I/O error.

A command imports the layers past validation (split, psi, suite, uqsl2)
only after its instance is validated, so that a refused input costs the
start-up of the validation layer alone.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import forge
from .linalg import rat, rat_str
from .report import ConsistencyError
from .tdsystem import (
    NotDiagonalizableError,
    NotTDSystemError,
    ParameterError,
    QRacahParams,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID = 2
EXIT_IO = 3

# What a command lets escape, by exception family: stderr prefix and exit
# code.  An instance file that cannot be read or is not a valid instance is
# invalid input; an operator that cannot be built is an internal
# consistency failure of a validated instance; writing the output is I/O.
FAILURES = (
    (
        (forge.IngestError, NotTDSystemError, NotDiagonalizableError, ParameterError),
        "invalid instance",
        EXIT_INVALID,
    ),
    ((ConsistencyError,), "internal consistency failure", EXIT_INVALID),
    ((OSError,), "cannot write output", EXIT_IO),
)
_FAILURE_TYPES = tuple(t for types, _, _ in FAILURES for t in types)


def _write(text: str, out_path: str | None) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        _sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_generate(args) -> int:
    if args.d > forge.MAX_DIAMETER:
        print(f"invalid parameters: diameter {args.d} exceeds the limit "
              f"{forge.MAX_DIAMETER}", file=_sys.stderr)
        return EXIT_INVALID
    try:
        params = QRacahParams(args.d, rat(args.q), rat(args.a), rat(args.b))
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    if args.phi:
        try:
            phi = tuple(rat(p) for p in args.phi.split(","))
        except ValueError as exc:
            print(f"invalid phi: {exc}", file=_sys.stderr)
            return EXIT_INVALID
    else:
        phi = forge.leonard_phi(params)
    try:
        instance = forge.validate(forge.build_split_form(params, phi), params)
    except ValueError as exc:
        print(f"validation failed: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    if args.out:
        forge.export_instance(instance, args.out)
    else:
        _sys.stdout.write(forge.format_instance(instance))
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = forge.ingest(args.instance)
    from .suite import full_suite

    select = None if args.suite == "all" else [s for s in args.suite.split(",") if s]
    report = full_suite(instance, select=select)
    _write(report.to_json_lines(), args.out)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def cmd_decompose(args) -> int:
    instance = forge.ingest(args.instance)
    from .psi import build_operator_set
    from .split import build_apparatus
    from .uqsl2 import decompose_into_components, first_structure

    apparatus = build_apparatus(instance)
    ops = build_operator_set(instance, apparatus)
    action = first_structure(instance, apparatus, ops.R, ops.psi)
    decomposition = decompose_into_components(action, instance, apparatus)
    lines = [
        json.dumps(
            {
                "i": c.i,
                "component": f"L({c.label},1)",
                "multiplicity": c.multiplicity,
                "casimir": rat_str(c.casimir_scalar),
            },
            sort_keys=True,
        )
        for c in decomposition.components
    ]
    _write("\n".join(lines), args.out)
    return EXIT_OK


def _apparatus_payload(apparatus) -> dict:
    return {
        "U": [s.basis.to_strings() for s in apparatus.U],
        "Udd": [s.basis.to_strings() for s in apparatus.Udd],
        "Kspaces": [s.basis.to_strings() for s in apparatus.Kspaces],
        "cells": {
            f"{i},{j}": cell.space.basis.to_strings()
            for (i, j), cell in sorted(apparatus.cells.items())
        },
    }


def cmd_export(args) -> int:
    instance = forge.ingest(args.instance)
    from .psi import build_operator_set
    from .split import build_apparatus

    apparatus = build_apparatus(instance)
    payload = {"K": apparatus.Kop.to_strings(), "B": apparatus.Bop.to_strings()}
    if args.what == "operators":
        ops = build_operator_set(instance, apparatus)
        payload.update((name, getattr(ops, name).to_strings())
                       for name in ("R", "Rdd", "psi", "Lambda"))
    else:
        payload.update(_apparatus_payload(apparatus))
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdlab",
        description="Exact verification toolkit for tridiagonal systems "
        "of q-Racah type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build and validate a split-form instance")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--q", required=True, help="rational string")
    gen.add_argument("--a", required=True, help="rational string")
    gen.add_argument("--b", required=True, help="rational string")
    gen.add_argument("--phi", help="comma-separated rational superdiagonal")
    gen.add_argument("--out", help="output path (stdout if omitted)")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the exact identity suite")
    ver.add_argument("--instance", required=True)
    ver.add_argument(
        "--suite",
        default="all",
        help="'all' or comma-separated check-id prefixes",
    )
    ver.add_argument("--out", help="report path (stdout if omitted)")
    ver.set_defaults(func=cmd_verify)

    dec = sub.add_parser("decompose", help="decompose into irreducible components")
    dec.add_argument("--instance", required=True)
    dec.add_argument("--out", help="report path (stdout if omitted)")
    dec.set_defaults(func=cmd_decompose)

    exp = sub.add_parser("export", help="export operators or the split apparatus")
    exp.add_argument("--instance", required=True)
    exp.add_argument("--what", choices=("operators", "apparatus"), default="operators")
    exp.add_argument("--out", help="output path (stdout if omitted)")
    exp.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURE_TYPES as exc:
        prefix, code = next((p, c) for types, p, c in FAILURES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=_sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
