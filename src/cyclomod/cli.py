"""Command-line front end: minimize, decompose-bool, decompose-perm, cert.

Exit codes: 0 on success (an undecided verdict is still success), 1 on
an internal invariant failure, 2 on bad input.  All JSON on stdout is
deterministic for a fixed input; human-oriented
summaries go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .boolfn import decompose_boolean, monomial_names, parse_anf, sn_action
from .decompose import complete_decomposition, decompose_once
from .fields import QQ, FieldSpec
from .modules import action_graph, orbit_basis
from .perms import permutation_module
from .serialize import (
    automaton_from_json,
    automaton_to_json,
    certificate_to_json,
    graph_to_dot,
    presentation_from_json,
    report_to_json,
    to_text,
)
from .wfa import minimize


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from None


def _emit(text: str, output: Optional[str]):
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ValueError(f"cannot write {output}: {err}") from None


def _write_dot_files(directory: str, report, names):
    blocks = [("module", report.module)] + [(f"summand_{k:02d}", b) for k, b in enumerate(report.summands)]
    dots = [(name, graph_to_dot(action_graph(block, names), name)) for name, block in blocks]
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in dots:
            with open(os.path.join(directory, f"{name}.dot"), "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as err:
        raise ValueError(f"cannot write DOT files to {directory}: {err}") from None


def _summary_lines(report) -> str:
    sig = ",".join(str(d) for d in report.signature)
    return f"signature: {sig}\nundecided_leaves: {report.undecided_count}\n"


def _parse_generator_vector(text: str, field: FieldSpec, degree: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != degree:
        raise ValueError(f"generator vector has {len(parts)} entries, expected {degree}")
    return tuple(field.parse(p) for p in parts)


def cmd_minimize(args) -> int:
    a = automaton_from_json(_read_json(args.input))
    m = minimize(a)
    _emit(to_text(automaton_to_json(m)), args.output)
    print(f"minimized: dim {a.dim} -> {m.dim}", file=sys.stderr)
    return 0


def _write_report(args, report, names) -> int:
    """A decompose command's output: DOT files if asked for, then the JSON report or its signature lines."""
    if args.dot is not None:
        _write_dot_files(args.dot, report, names)
    if args.cert_only:
        _emit(_summary_lines(report), args.output)
    else:
        _emit(to_text(report_to_json(report, names)), args.output)
    print(f"decomposed dim {report.module.dim} module into {len(report.summands)} summands", file=sys.stderr)
    return 0


def cmd_decompose_bool(args) -> int:
    report = decompose_boolean(parse_anf(args.expr, args.n))
    # the monomials are named only where a report or a graph is written
    names = None if args.cert_only and args.dot is None else monomial_names(args.n)
    return _write_report(args, report, names)


def cmd_decompose_perm(args) -> int:
    presentation = presentation_from_json(_read_json(args.input))
    g = _parse_generator_vector(args.generator, QQ, presentation.degree)
    return _write_report(args, complete_decomposition(permutation_module(presentation, g)), None)


def cmd_cert(args) -> int:
    if args.bool_expr is not None and args.perm is not None:
        raise ValueError("choose one module source: --bool or --perm")
    if args.bool_expr is not None:
        if args.n is None:
            raise ValueError("--bool needs -n (number of variables)")
        if args.generator is not None:
            raise ValueError("--generator goes with --perm, not --bool")
        f = parse_anf(args.bool_expr, args.n)
        module = orbit_basis(sn_action(args.n), f.coeffs)
    elif args.perm is not None:
        if args.generator is None:
            raise ValueError("--perm needs --generator")
        if args.n is not None:
            raise ValueError("-n goes with --bool, not --perm")
        presentation = presentation_from_json(_read_json(args.perm))
        g = _parse_generator_vector(args.generator, QQ, presentation.degree)
        module = permutation_module(presentation, g)
    else:
        raise ValueError("choose a module source: --bool EXPR -n N or --perm FILE --generator V")
    if module.dim == 0:
        raise ValueError("the generator is zero: nothing to certify")
    cert = decompose_once(module)[0]
    _emit(to_text(certificate_to_json(cert)), args.output)
    print(f"verdict: {cert.verdict} (mode {cert.mode})", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cyclomod",
        description="exact cyclic-module decomposition and automaton minimization",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_min = subs.add_parser("minimize", help="minimize a weighted automaton JSON file")
    p_min.add_argument("input", help="automaton JSON path")
    p_min.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")
    p_min.set_defaults(func=cmd_minimize)

    p_bool = subs.add_parser("decompose-bool", help="decompose a boolean function module")
    p_bool.add_argument("expr", help="ANF expression, e.g. 'x1*x2 + x3'")
    p_bool.add_argument("-n", type=int, required=True, help="number of variables")
    p_bool.add_argument("-o", "--output", default=None)
    p_bool.add_argument("--dot", default=None, help="directory for DOT files")
    p_bool.add_argument("--cert-only", action="store_true", help="print only signature lines")
    p_bool.set_defaults(func=cmd_decompose_bool)

    p_perm = subs.add_parser("decompose-perm", help="decompose a permutation module over Q")
    p_perm.add_argument("input", help="presentation JSON path")
    p_perm.add_argument("--generator", required=True, help="comma-separated rational vector")
    p_perm.add_argument("-o", "--output", default=None)
    p_perm.add_argument("--dot", default=None, help="directory for DOT files")
    p_perm.add_argument("--cert-only", action="store_true", help="print only signature lines")
    p_perm.set_defaults(func=cmd_decompose_perm)

    p_cert = subs.add_parser("cert", help="one certificate of the whole module, no recursion")
    p_cert.add_argument("--bool", dest="bool_expr", default=None, help="ANF expression")
    p_cert.add_argument("-n", type=int, default=None, help="number of variables (with --bool)")
    p_cert.add_argument("--perm", default=None, help="presentation JSON path")
    p_cert.add_argument("--generator", default=None, help="generator vector (with --perm)")
    p_cert.add_argument("-o", "--output", default=None)
    p_cert.set_defaults(func=cmd_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything unexpected is an internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
