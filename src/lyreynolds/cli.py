"""Command-line front end.

    lyreynolds verify FILE... --name OBJ
    lyreynolds cohomology FILE... --algebra A --operator T --rep R
                          [--complex {ly,ro,rly}] [--max-degree N]
    lyreynolds classify-extensions FILE... --algebra A --operator T --rep R
    lyreynolds deform-check FILE... --name D [--order N]

Exit codes: 0 all checks pass, 1 a mathematical check failed (witness
printed), 2 malformed input or unresolved references (among them a file
that is not UTF-8 and an integer over the interpreter's digit limit).
``--json`` switches the report to a machine-readable form that parses back
into the same report objects.

Each command is declared once, in ``COMMANDS``.  A call that names a
command builds that command's parser only, whose help and errors are the
bytes of the full parser's subparser of that name.  Every other call, and
one that leaves arguments over, is parsed again by the full parser
(:func:`build_parser`), so top-level help, ``--version`` and those errors
are its own.  Parsers are built per call and none is kept.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .cohomology import (
    cohomology_dims,
    differential_matrix,
    is_cocycle,
    phi_matrix,
    unflatten_rly,
)
from .deformation import TruncatedDeformation, verify_deformation
from .errors import InvalidInput, InvalidReynolds, LyError, NameNotFound
from .extension import (
    AbelianExtension,
    ExtensionCocycle,
    base_data,
    build_extension,
    class_representatives,
    extract_rep,
)
from .fileformat import Workspace, load_workspace
from .linalg import format_rational
from .algebra import verify_ly_axioms
from .reporting import AxiomReport, Check
from .representation import check_inputs, verify_rep, verify_reynolds_rep
from .reynolds import verify_reynolds

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values the
    commands print: dicts with str keys, lists, str, int, bool and None.
    ``indent`` is the line break and indentation of the enclosing level."""
    if value.__class__ is str:
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if value.__class__ is int:
        return int.__repr__(value)
    inner = indent + "  "
    if value.__class__ is list:
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join([_dumps(v, inner) for v in value])
                + indent + "]")
    if value.__class__ is dict:
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in value.items()])
            + indent + "}")
    raise TypeError(f"cannot write a {value.__class__.__name__} as JSON")


def _fail_data(kind: str, name: str, report) -> dict:
    return {"object": name, "kind": kind, "report": report.to_json()}


def _verify_object(ws: Workspace, name: str) -> tuple[bool, dict, str]:
    """Run the appropriate verifier; returns (ok, json payload, text)."""
    kind = ws.kind_of(name)
    if kind == "algebra":
        report = verify_ly_axioms(ws.algebras[name])
        return report.ok, _fail_data(kind, name, report), report.describe()
    if kind == "operator":
        entry = ws.operators[name]
        report = verify_reynolds(ws.algebra(entry.algebra), entry.op)
        return report.ok, _fail_data(kind, name, report), report.describe()
    if kind == "representation":
        entry = ws.representations[name]
        algebra = ws.algebra(entry.algebra)
        report = verify_rep(algebra, entry.rep)
        text = report.describe()
        ok = report.ok
        payload = [report.to_json()]
        if entry.rep.module_op is not None and entry.operator is not None:
            op = ws.operator(entry.operator).op
            rey = verify_reynolds_rep(algebra, op, entry.rep)
            ok = ok and rey.ok
            text += "\n" + rey.describe()
            payload.append(rey.to_json())
        return ok, {"object": name, "kind": kind, "report": payload}, text
    if kind == "cochain":
        entry = ws.cochains[name]
        algebra = ws.algebra(entry.algebra)
        rep = ws.representation(entry.representation).rep
        op = ws.operator(entry.operator).op if entry.operator else None
        closed = is_cocycle(algebra, op, rep, entry.complex_name, entry.cochain)
        report = AxiomReport((Check("is-cocycle", closed,
                                    None if closed else (), None),))
        return closed, _fail_data(kind, name, report), report.describe()
    if kind == "deformation":
        entry = ws.deformations[name]
        deformation = TruncatedDeformation(entry.order, entry.F, entry.G, entry.Tt)
        report = verify_deformation(ws.algebra(entry.algebra),
                                    ws.operator(entry.operator).op, deformation)
        return report.ok, _fail_data(kind, name, report), report.describe()
    # extension: building the object runs every structural check
    entry = ws.extensions[name]
    try:
        ext = AbelianExtension(ws.algebra(entry.total),
                               ws.operator(entry.total_operator).op,
                               entry.inject, entry.project)
    except LyError as exc:
        report = AxiomReport((Check("extension-structure", False, (), None),))
        payload = _fail_data(kind, name, report)
        payload["error"] = str(exc)
        return False, payload, f"extension-structure: FAIL\n{exc}"
    checks = [Check("extension-structure", True)]
    if entry.base is not None:
        base, base_op, _tv = base_data(ext)
        matches = base.binary == ws.algebra(entry.base).binary \
            and base.ternary == ws.algebra(entry.base).ternary
        if entry.operator is not None:
            matches = matches and base_op == ws.operator(entry.operator).op
        checks.append(Check("base-data-matches", matches, None if matches else ()))
        if entry.representation is not None:
            rep_match = extract_rep(ext) == ws.representation(entry.representation).rep
            checks.append(Check("induced-representation-matches", rep_match,
                                None if rep_match else ()))
    report = AxiomReport(tuple(checks))
    return report.ok, _fail_data(kind, name, report), report.describe()


def cmd_verify(args) -> int:
    ws = load_workspace(args.files)
    ok, payload, text = _verify_object(ws, args.name)
    if args.json:
        print(_dumps(payload))
    else:
        print(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _resolve_triple(ws: Workspace, args):
    algebra = ws.algebra(args.algebra)
    op_entry = ws.operator(args.operator)
    rep_entry = ws.representation(args.rep)
    if op_entry.algebra != args.algebra or rep_entry.algebra != args.algebra:
        raise LyError("algebra, operator and representation must belong together")
    # the engine's entry points pass the same cached gate again
    try:
        check_inputs(algebra, op_entry.op, rep_entry.rep)
    except (InvalidInput, InvalidReynolds):
        raise LyError("inputs fail verification; run the verify command for details") from None
    return algebra, op_entry.op, rep_entry.rep


def cmd_cohomology(args) -> int:
    ws = load_workspace(args.files)
    algebra, op, rep = _resolve_triple(ws, args)
    report = cohomology_dims(algebra, op, rep, args.complex, args.max_degree)

    # cohomology_dims has checked every d(p+1) . d(p) = 0 and raises
    # CompositionNotZero otherwise, so each of them passed
    square_zero = [True] * (args.max_degree - 1)
    chain_map = []
    if args.complex == "rly":
        # the lower-left block of the cone's d(p+1) . d(p) is
        # partial(p) . phi(p) - phi(p+1) . delta(p), so the same checks
        # passed the comparison map at each degree
        chain_map = [True] * (args.max_degree - 1)
    elif rep.module_op is not None:
        for p in range(1, args.max_degree):
            lhs = phi_matrix(algebra, op, rep, p + 1) \
                @ differential_matrix(algebra, op, rep, "ly", p)
            rhs = differential_matrix(algebra, op, rep, "ro", p) \
                @ phi_matrix(algebra, op, rep, p)
            chain_map.append(lhs == rhs)

    if args.json:
        payload = report.to_json()
        payload["square_zero"] = square_zero
        payload["chain_map"] = chain_map
        print(_dumps(payload))
    else:
        print(report.describe())
        for p, ok in enumerate(square_zero, start=1):
            print(f"d{p + 1} o d{p} = 0: {'pass' if ok else 'FAIL'}")
        for p, ok in enumerate(chain_map, start=1):
            print(f"comparison map squares with d at degree {p}: "
                  f"{'pass' if ok else 'FAIL'}")
    all_ok = all(square_zero) and all(chain_map)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_classify_extensions(args) -> int:
    ws = load_workspace(args.files)
    algebra, op, rep = _resolve_triple(ws, args)
    if rep.module_op is None:
        raise LyError("classifying extensions needs a representation with a module operator")
    report = cohomology_dims(algebra, op, rep, "rly", 2)
    betti2 = report.betti(2)
    reps = class_representatives(algebra, op, rep)
    n, m = algebra.dim, rep.module_dim

    built = []
    for vec in reps:
        cocycle = ExtensionCocycle.from_cochain(unflatten_rly(2, n, m, vec))
        build_extension(algebra, op, rep, cocycle)  # machine check: it assembles
        built.append(cocycle)

    if args.json:
        payload = {
            "betti2": betti2,
            "representatives": [_cocycle_to_json(c) for c in built],
        }
        print(_dumps(payload))
    else:
        print(f"second cohomology dimension: {betti2}")
        if betti2 == 0:
            print("all extensions are equivalent to the semidirect product")
        for idx, cocycle in enumerate(built, start=1):
            print(f"representative {idx}:")
            print(_cocycle_describe(cocycle))
    return EXIT_OK


def _cocycle_to_json(c: ExtensionCocycle) -> dict:
    # the nonzero cells, in lexicographic order of (i, j, [k,] a)
    nu, psi = ([[*(t + 1 for t in idx), format_rational(v)] for idx, v in tensor.entries()]
               for tensor in (c.nu, c.psi))
    chi = [[z + 1, a + 1, format_rational(v)]
           for z, row in enumerate(c.chi.transpose().sparse) for a, v in row]
    return {"nu": nu, "psi": psi, "chi": chi}


def _cocycle_describe(c: ExtensionCocycle) -> str:
    data = _cocycle_to_json(c)
    lines = []
    for key in ("nu", "psi", "chi"):
        for entry in data[key]:
            idx = " ".join(str(t) for t in entry[:-1])
            lines.append(f"  {key} {idx} = {entry[-1]}")
    return "\n".join(lines) if lines else "  (zero cocycle)"


def cmd_deform_check(args) -> int:
    ws = load_workspace(args.files)
    if args.name is None:
        if len(ws.deformations) != 1:
            raise LyError("pass --name: the files define "
                          f"{len(ws.deformations)} deformations")
        name = next(iter(ws.deformations))
    else:
        name = args.name
    if name not in ws.deformations:
        raise NameNotFound(f"no deformation named {name!r}")
    entry = ws.deformations[name]
    order = args.order if args.order is not None else entry.order
    if order > entry.order:
        raise LyError(f"file only carries coefficients up to order {entry.order}")
    deformation = TruncatedDeformation(
        order, entry.F[:order + 1], entry.G[:order + 1], entry.Tt[:order + 1])
    report = verify_deformation(ws.algebra(entry.algebra),
                                ws.operator(entry.operator).op, deformation)
    if args.json:
        print(_dumps({"object": name, "report": report.to_json()}))
    else:
        print(report.describe())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True)


def _triple_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--rep", required=True)


def _cohomology_options(p: argparse.ArgumentParser) -> None:
    _triple_options(p)
    p.add_argument("--complex", choices=("ly", "ro", "rly"), default="rly")
    p.add_argument("--max-degree", type=int, default=3)


def _deform_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name")
    p.add_argument("--order", type=int)


# name -> (help, the options between FILE... and --json, handler)
COMMANDS = {
    "verify": ("run the verifier battery of one named object",
               _verify_options, cmd_verify),
    "cohomology": ("cohomology dimension table of a complex",
                   _cohomology_options, cmd_cohomology),
    "classify-extensions": ("degree-2 classes with verified representatives",
                            _triple_options, cmd_classify_extensions),
    "deform-check": ("verify a deformation order by order",
                     _deform_options, cmd_deform_check),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> None:
    """The arguments of command ``name`` on ``p``, with its ``command`` and
    ``fn`` defaults."""
    _help, options, fn = COMMANDS[name]
    p.add_argument("files", nargs="+")
    options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(command=name, fn=fn)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command, top-level help and ``--version``."""
    parser = argparse.ArgumentParser(
        prog="lyreynolds",
        description="Exact verification and cohomology for Lie-Yamaguti "
                    "algebras with Reynolds operators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _options, _fn) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv``.  A call that names a command and parses
    with nothing left over builds that command's parser only; every other
    call (no command, an unknown or abbreviated one, top-level help or
    ``--version``, an argument the command does not take) is parsed again
    by :func:`build_parser`, so its usage, help and error bytes are the
    full parser's own.  No parser outlives the call."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"lyreynolds {argv[0]}")
        _add_command(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except (LyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
