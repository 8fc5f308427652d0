"""Line-oriented input format for algebras, operators, representations,
cochains, deformations and extensions.

The grammar (documented with a full example in the README):

  * blank lines and ``#`` comments are ignored;
  * ``[<kind> <name>]`` opens a section; kinds are algebra, operator,
    representation, cochain, deformation, extension; names are unique
    across the whole workspace;
  * inside a section every line is ``key = tokens``; list-valued keys
    repeat, one entry per line;
  * basis indices are 1-based; coefficients are rational literals ``p`` or
    ``p/q``;
  * structure constants are sparse: unspecified entries are zero, the
    antisymmetric image of every entry is implied, and contradicting an
    implied entry is a load-time error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LyAlgebra, binary_from_sparse, ternary_from_sparse
from .cohomology import RlyCochain, cochain2_from_tensors, cochain_from_matrix
from .errors import DimMismatch, NameNotFound, ParseError
from .linalg import Matrix, parse_rational
from .representation import Representation, adjoint_rep
from .reynolds import ReynoldsOperator

_SECTION_RE = re.compile(r"^\[(\w+)\s+([A-Za-z_][\w.-]*)\]$")

_KINDS = ("algebra", "operator", "representation", "cochain", "deformation", "extension")

_LIST_KEYS = {
    "algebra": {"binary", "ternary"},
    "operator": {"row"},
    "representation": {"rho", "theta", "module_op_row"},
    "cochain": {"f", "g", "tail", "map"},
    "deformation": {"F", "G", "T"},
    "extension": {"inject_row", "project_row"},
}
_SCALAR_KEYS = {
    "algebra": {"dim", "labels"},
    "operator": {"algebra", "weight"},
    "representation": {"algebra", "operator", "module_dim", "adjoint"},
    "cochain": {"algebra", "operator", "representation", "complex", "degree"},
    "deformation": {"algebra", "operator", "order"},
    "extension": {"base", "operator", "representation", "total", "total_operator"},
}


@dataclass
class _RawSection:
    kind: str
    name: str
    path: str
    line: int
    scalars: dict = field(default_factory=dict)  # key -> (tokens, line)
    lists: dict = field(default_factory=dict)  # key -> list[(tokens, line)]


@dataclass(frozen=True)
class OperatorEntry:
    algebra: str
    op: ReynoldsOperator


@dataclass(frozen=True)
class RepresentationEntry:
    algebra: str
    operator: str | None
    rep: Representation


@dataclass(frozen=True)
class CochainEntry:
    algebra: str
    operator: str | None
    representation: str
    complex_name: str
    cochain: object  # Cochain or RlyCochain


@dataclass(frozen=True)
class DeformationEntry:
    algebra: str
    operator: str
    order: int
    F: tuple
    G: tuple
    Tt: tuple


@dataclass(frozen=True)
class ExtensionEntry:
    total: str
    total_operator: str
    inject: Matrix
    project: Matrix
    base: str | None
    operator: str | None
    representation: str | None


@dataclass
class Workspace:
    """All named objects of one or more input files, cross-references
    resolved and dimensions checked."""

    algebras: dict[str, LyAlgebra] = field(default_factory=dict)
    operators: dict[str, OperatorEntry] = field(default_factory=dict)
    representations: dict[str, RepresentationEntry] = field(default_factory=dict)
    cochains: dict[str, CochainEntry] = field(default_factory=dict)
    deformations: dict[str, DeformationEntry] = field(default_factory=dict)
    extensions: dict[str, ExtensionEntry] = field(default_factory=dict)

    def kind_of(self, name: str) -> str:
        for kind, table in (("algebra", self.algebras), ("operator", self.operators),
                            ("representation", self.representations),
                            ("cochain", self.cochains),
                            ("deformation", self.deformations),
                            ("extension", self.extensions)):
            if name in table:
                return kind
        raise NameNotFound(f"no object named {name!r} in the loaded files")

    def algebra(self, name: str) -> LyAlgebra:
        if name not in self.algebras:
            raise NameNotFound(f"no algebra named {name!r}")
        return self.algebras[name]

    def operator(self, name: str) -> OperatorEntry:
        if name not in self.operators:
            raise NameNotFound(f"no operator named {name!r}")
        return self.operators[name]

    def representation(self, name: str) -> RepresentationEntry:
        if name not in self.representations:
            raise NameNotFound(f"no representation named {name!r}")
        return self.representations[name]


def _tokenize(path: str) -> list[_RawSection]:
    sections: list[_RawSection] = []
    current: _RawSection | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                m = _SECTION_RE.match(line)
                if m is None:
                    raise ParseError("malformed section header", path, lineno)
                kind, name = m.group(1), m.group(2)
                if kind not in _KINDS:
                    raise ParseError(f"unknown section kind {kind!r}", path, lineno)
                current = _RawSection(kind, name, path, lineno)
                sections.append(current)
                continue
            if current is None:
                raise ParseError("content before any section header", path, lineno)
            if "=" not in line:
                raise ParseError("expected 'key = value'", path, lineno)
            key, value = line.split("=", 1)
            key = key.strip()
            tokens = value.split()
            if key in _LIST_KEYS[current.kind]:
                current.lists.setdefault(key, []).append((tokens, lineno))
            elif key in _SCALAR_KEYS[current.kind]:
                if key in current.scalars:
                    raise ParseError(f"duplicate key {key!r}", path, lineno)
                current.scalars[key] = (tokens, lineno)
            else:
                raise ParseError(
                    f"unknown key {key!r} in a {current.kind} section", path, lineno)
    return sections


def _rational(tok: str, path: str, line: int) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError as exc:
        raise ParseError(str(exc), path, line) from None


def _index(tok: str, dim: int, path: str, line: int) -> int:
    if not tok.isdigit() or int(tok) < 1:
        raise ParseError(f"expected a 1-based index, got {tok!r}", path, line)
    value = int(tok)
    if value > dim:
        raise ParseError(f"index {value} out of range 1..{dim}", path, line)
    return value - 1


def _int_scalar(sec: _RawSection, key: str, minimum: int = 0) -> int:
    if key not in sec.scalars:
        raise ParseError(f"{sec.kind} section needs {key!r}", sec.path, sec.line)
    tokens, line = sec.scalars[key]
    if len(tokens) != 1 or not tokens[0].lstrip("-").isdigit():
        raise ParseError(f"{key!r} must be one integer", sec.path, line)
    value = int(tokens[0])
    if value < minimum:
        raise ParseError(f"{key!r} must be >= {minimum}", sec.path, line)
    return value


def _name_scalar(sec: _RawSection, key: str, required: bool = True) -> str | None:
    if key not in sec.scalars:
        if required:
            raise ParseError(f"{sec.kind} section needs {key!r}", sec.path, sec.line)
        return None
    tokens, line = sec.scalars[key]
    if len(tokens) != 1:
        raise ParseError(f"{key!r} must be one name", sec.path, line)
    return tokens[0]


def _sparse_entries(sec: _RawSection, key: str, dims: tuple[int, ...],
                    antisym_pair: tuple[int, int] | None = None) -> dict:
    """Collect sparse tensor lines ``i j .. val`` into a coordinate dict.

    ``dims`` bounds each index axis.  Conflicting duplicates and
    inconsistent antisymmetric images are load-time errors carrying the
    offending line."""
    cells: dict[tuple, tuple[Fraction, int]] = {}
    for tokens, line in sec.lists.get(key, []):
        if len(tokens) != len(dims) + 1:
            raise ParseError(
                f"{key!r} entries take {len(dims)} indices and one value",
                sec.path, line)
        idx = tuple(_index(t, d, sec.path, line) for t, d in zip(tokens, dims))
        val = _rational(tokens[-1], sec.path, line)
        images = [(idx, val)]
        if antisym_pair is not None:
            a, b = antisym_pair
            swapped = list(idx)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            images.append((tuple(swapped), -val))
        for where, value in images:
            if where in cells and cells[where][0] != value:
                raise ParseError(
                    f"{key!r} entry at {tuple(i + 1 for i in where)} conflicts with "
                    f"line {cells[where][1]}", sec.path, line)
            cells.setdefault(where, (value, line))
    return {idx: val for idx, (val, _) in cells.items()}


def _cells_at(cells: dict, lead: tuple) -> dict:
    """The entries of ``cells`` whose index starts with ``lead``, keyed by
    the rest of the index."""
    k = len(lead)
    return {idx[k:]: v for idx, v in cells.items() if idx[:k] == lead}


def _cell_matrix(cells: dict, rows: int, cols: int) -> Matrix:
    """The matrix with entry v at each (row, column) key of ``cells``."""
    acc = [{} for _ in range(rows)]
    for (r, c), v in cells.items():
        acc[r][c] = v
    return Matrix.from_sparse_rows(acc, cols)


def _matrix_rows(sec: _RawSection, key: str, cols: int | None = None) -> Matrix:
    rows = []
    first_line = None
    for tokens, line in sec.lists.get(key, []):
        first_line = first_line if first_line is not None else line
        rows.append([_rational(t, sec.path, line) for t in tokens])
    if not rows:
        raise ParseError(f"{sec.kind} section needs at least one {key!r} line",
                         sec.path, sec.line)
    width = len(rows[0])
    for r, (tokens, line) in zip(rows, sec.lists[key]):
        if len(r) != width:
            raise ParseError(f"ragged {key!r} rows", sec.path, line)
    if cols is not None and width != cols:
        raise ParseError(f"{key!r} rows must have {cols} entries", sec.path, first_line)
    return Matrix.from_rows(rows, width)


def _build_algebra(sec: _RawSection) -> LyAlgebra:
    dim = _int_scalar(sec, "dim", minimum=0)
    labels = None
    if "labels" in sec.scalars:
        tokens, line = sec.scalars["labels"]
        if len(tokens) != dim:
            raise ParseError(f"need {dim} labels", sec.path, line)
        labels = tuple(tokens)
    binary = binary_from_sparse(
        dim, _sparse_entries(sec, "binary", (dim,) * 3, (0, 1)))
    ternary = ternary_from_sparse(
        dim, _sparse_entries(sec, "ternary", (dim,) * 4, (0, 1)))
    return LyAlgebra(dim, binary, ternary, labels)


def _build_operator(sec: _RawSection, algebras: dict) -> OperatorEntry:
    alg_name = _name_scalar(sec, "algebra")
    if alg_name not in algebras:
        raise NameNotFound(f"operator {sec.name!r} references unknown algebra {alg_name!r}")
    algebra = algebras[alg_name]
    tokens, line = sec.scalars.get("weight", (None, sec.line))
    if tokens is None:
        raise ParseError("operator section needs 'weight'", sec.path, sec.line)
    if len(tokens) != 1:
        raise ParseError("'weight' must be one rational", sec.path, line)
    weight = _rational(tokens[0], sec.path, line)
    matrix = _matrix_rows(sec, "row", cols=algebra.dim if algebra.dim else None)
    if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
        raise DimMismatch(
            f"operator {sec.name!r} must be {algebra.dim}x{algebra.dim}")
    return OperatorEntry(alg_name, ReynoldsOperator(matrix, weight))


def _build_representation(sec: _RawSection, algebras: dict,
                          operators: dict) -> RepresentationEntry:
    alg_name = _name_scalar(sec, "algebra")
    if alg_name not in algebras:
        raise NameNotFound(
            f"representation {sec.name!r} references unknown algebra {alg_name!r}")
    algebra = algebras[alg_name]
    op_name = _name_scalar(sec, "operator", required=False)
    op_entry = None
    if op_name is not None:
        if op_name not in operators:
            raise NameNotFound(
                f"representation {sec.name!r} references unknown operator {op_name!r}")
        op_entry = operators[op_name]
        if op_entry.algebra != alg_name:
            raise DimMismatch(
                f"representation {sec.name!r}: operator {op_name!r} lives on a "
                "different algebra")

    if "adjoint" in sec.scalars:
        tokens, line = sec.scalars["adjoint"]
        if tokens != ["true"]:
            raise ParseError("'adjoint' only takes the value true", sec.path, line)
        rep = adjoint_rep(algebra, op_entry.op if op_entry else None)
        return RepresentationEntry(alg_name, op_name, rep)

    m = _int_scalar(sec, "module_dim", minimum=0)
    n = algebra.dim
    rho_cells = _sparse_entries(sec, "rho", (n, m, m))
    theta_cells = _sparse_entries(sec, "theta", (n, n, m, m))
    rho = tuple(_cell_matrix(_cells_at(rho_cells, (i,)), m, m) for i in range(n))
    theta = tuple(tuple(_cell_matrix(_cells_at(theta_cells, (i, j)), m, m)
                        for j in range(n)) for i in range(n))
    module_op = None
    if "module_op_row" in sec.lists:
        module_op = _matrix_rows(sec, "module_op_row", cols=m)
        if module_op.rows != m:
            raise DimMismatch(f"module operator of {sec.name!r} must be {m}x{m}")
    rep = Representation(n, m, rho, theta, module_op)
    return RepresentationEntry(alg_name, op_name, rep)


def _build_cochain(sec: _RawSection, algebras: dict, operators: dict,
                   representations: dict) -> CochainEntry:
    alg_name = _name_scalar(sec, "algebra")
    rep_name = _name_scalar(sec, "representation")
    op_name = _name_scalar(sec, "operator", required=False)
    if alg_name not in algebras:
        raise NameNotFound(f"cochain {sec.name!r} references unknown algebra {alg_name!r}")
    if rep_name not in representations:
        raise NameNotFound(
            f"cochain {sec.name!r} references unknown representation {rep_name!r}")
    if representations[rep_name].algebra != alg_name:
        raise DimMismatch(
            f"cochain {sec.name!r}: representation {rep_name!r} lives on a different algebra")
    if op_name is not None:
        if op_name not in operators:
            raise NameNotFound(
                f"cochain {sec.name!r} references unknown operator {op_name!r}")
        if operators[op_name].algebra != alg_name:
            raise DimMismatch(
                f"cochain {sec.name!r}: operator {op_name!r} lives on a different algebra")
    which = _name_scalar(sec, "complex", required=False) or "ly"
    if which not in ("ly", "ro", "rly"):
        raise ParseError("'complex' must be ly, ro or rly", sec.path, sec.line)
    if which != "ly" and op_name is None:
        raise ParseError(f"complex {which!r} needs an operator reference",
                         sec.path, sec.line)
    degree = _int_scalar(sec, "degree", minimum=1)
    if degree not in (1, 2):
        raise ParseError("cochain files carry degree 1 or 2", sec.path, sec.line)
    for key, entries in sec.lists.items():  # in the order of their first lines
        if key == "tail" and which != "rly":
            raise ParseError("'tail' only makes sense for the rly complex",
                             sec.path, entries[0][1])
        if key not in ({"map"} if degree == 1 else {"f", "g", "tail"}):
            raise ParseError(f"{key!r} is not read by a degree-{degree} cochain",
                             sec.path, entries[0][1])
    n = algebras[alg_name].dim
    m = representations[rep_name].rep.module_dim

    def map_matrix(key):
        cells = _sparse_entries(sec, key, (n, m))
        return _cell_matrix({(a, z): v for (z, a), v in cells.items()}, m, n)

    if degree == 1:
        top = cochain_from_matrix(map_matrix("map"))
        cochain = RlyCochain(top, None) if which == "rly" else top
        return CochainEntry(alg_name, op_name, rep_name, which, cochain)

    f_cells = _sparse_entries(sec, "f", (n, n, m), (0, 1))
    g_cells = _sparse_entries(sec, "g", (n, n, n, m), (0, 1))
    nu = [[[Fraction(0)] * m for _ in range(n)] for _ in range(n)]
    psi = [[[[Fraction(0)] * m for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, a), val in f_cells.items():
        nu[i][j][a] = val
    for (i, j, z, a), val in g_cells.items():
        psi[i][j][z][a] = val
    top = cochain2_from_tensors(n, m, nu, psi)
    if which != "rly":
        return CochainEntry(alg_name, op_name, rep_name, which, top)
    cochain = RlyCochain(top, cochain_from_matrix(map_matrix("tail")))
    return CochainEntry(alg_name, op_name, rep_name, which, cochain)


def _build_deformation(sec: _RawSection, algebras: dict, operators: dict
                       ) -> DeformationEntry:
    alg_name = _name_scalar(sec, "algebra")
    op_name = _name_scalar(sec, "operator")
    if alg_name not in algebras:
        raise NameNotFound(
            f"deformation {sec.name!r} references unknown algebra {alg_name!r}")
    if op_name not in operators:
        raise NameNotFound(
            f"deformation {sec.name!r} references unknown operator {op_name!r}")
    if operators[op_name].algebra != alg_name:
        raise DimMismatch(
            f"deformation {sec.name!r}: operator and algebra do not match")
    order = _int_scalar(sec, "order", minimum=1)
    n = algebras[alg_name].dim

    # the order is a leading 1-based index; F and G are antisymmetric in the
    # two indices after it
    f_cells = _sparse_entries(sec, "F", (order,) + (n,) * 3, (1, 2))
    g_cells = _sparse_entries(sec, "G", (order,) + (n,) * 4, (1, 2))
    t_cells = _sparse_entries(sec, "T", (order, n, n))
    base = algebras[alg_name]
    op = operators[op_name].op
    orders = range(order)
    F = [base.binary] + [binary_from_sparse(n, _cells_at(f_cells, (k,))) for k in orders]
    G = [base.ternary] + [ternary_from_sparse(n, _cells_at(g_cells, (k,))) for k in orders]
    Tt = [op.matrix] + [_cell_matrix(_cells_at(t_cells, (k,)), n, n) for k in orders]
    return DeformationEntry(alg_name, op_name, order, tuple(F), tuple(G), tuple(Tt))


def _build_extension(sec: _RawSection, algebras: dict, operators: dict,
                     representations: dict) -> ExtensionEntry:
    total_name = _name_scalar(sec, "total")
    total_op_name = _name_scalar(sec, "total_operator")
    if total_name not in algebras:
        raise NameNotFound(
            f"extension {sec.name!r} references unknown algebra {total_name!r}")
    if total_op_name not in operators:
        raise NameNotFound(
            f"extension {sec.name!r} references unknown operator {total_op_name!r}")
    if operators[total_op_name].algebra != total_name:
        raise DimMismatch(
            f"extension {sec.name!r}: total operator and total algebra do not match")
    base_name = _name_scalar(sec, "base", required=False)
    op_name = _name_scalar(sec, "operator", required=False)
    rep_name = _name_scalar(sec, "representation", required=False)
    for ref, table, what in ((base_name, algebras, "algebra"),
                             (op_name, operators, "operator"),
                             (rep_name, representations, "representation")):
        if ref is not None and ref not in table:
            raise NameNotFound(f"extension {sec.name!r} references unknown {what} {ref!r}")
    big = algebras[total_name].dim
    inject = _matrix_rows(sec, "inject_row")
    project = _matrix_rows(sec, "project_row")
    if inject.rows != big or project.cols != big:
        raise DimMismatch(
            f"extension {sec.name!r}: inject/project must use the total coordinates")
    return ExtensionEntry(total_name, total_op_name, inject, project,
                          base_name, op_name, rep_name)


def load_workspace(paths) -> Workspace:
    """Parse one or more files into a workspace; names resolve across files."""
    sections: list[_RawSection] = []
    for path in paths:
        sections.extend(_tokenize(str(path)))

    seen: dict[str, _RawSection] = {}
    for sec in sections:
        if sec.name in seen:
            raise ParseError(
                f"name {sec.name!r} already used at {seen[sec.name].path}:"
                f"{seen[sec.name].line}", sec.path, sec.line)
        seen[sec.name] = sec

    ws = Workspace()
    for sec in sections:
        if sec.kind == "algebra":
            ws.algebras[sec.name] = _build_algebra(sec)
    for sec in sections:
        if sec.kind == "operator":
            ws.operators[sec.name] = _build_operator(sec, ws.algebras)
    for sec in sections:
        if sec.kind == "representation":
            ws.representations[sec.name] = _build_representation(
                sec, ws.algebras, ws.operators)
    for sec in sections:
        if sec.kind == "cochain":
            ws.cochains[sec.name] = _build_cochain(
                sec, ws.algebras, ws.operators, ws.representations)
        elif sec.kind == "deformation":
            ws.deformations[sec.name] = _build_deformation(
                sec, ws.algebras, ws.operators)
        elif sec.kind == "extension":
            ws.extensions[sec.name] = _build_extension(
                sec, ws.algebras, ws.operators, ws.representations)
    return ws
