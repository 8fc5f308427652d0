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

Sparse lines are read in one pass per key (:func:`_sparse_tensor`): each
index is looked up among the in-range spellings of its axis, each distinct
value literal is parsed once, each cell and its antisymmetric image go to
their place in product order as the line is read, a deformation's orders
to a dict each.  The brackets, cochain parts and deformation coefficients
so written are antisymmetric by construction, and their tensors carry that
as a certificate (``Tensor.antisymmetric``), which the algebra, cochain and
deformation constructors take without another scan.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .algebra import LyAlgebra, Tensor
from .cohomology import RlyCochain, cochain2_from_tensors, cochain_from_matrix
from .errors import DimMismatch, NameNotFound, ParseError
from .linalg import Matrix, digits, from_cells, parse_rational
from . import representation
from .representation import Representation
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
# reference key -> the kind of object it names
_REF_KINDS = {"algebra": "algebra", "base": "algebra", "total": "algebra",
              "operator": "operator", "total_operator": "operator",
              "representation": "representation"}


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
    """A representation section.  The ``rep`` of an ``adjoint = true``
    section is built by :func:`representation.adjoint_rep` when it is first
    read (:meth:`adjoint`), and then kept; ``repr`` and ``==`` read it as a
    field."""

    algebra: str
    operator: str | None
    rep: Representation

    @classmethod
    def adjoint(cls, algebra: str, operator: str | None, of: tuple) -> "RepresentationEntry":
        """The entry of the adjoint representation of the ``(LyAlgebra,
        ReynoldsOperator or None)`` pair ``of``, not built yet."""
        entry = object.__new__(cls)
        entry.__dict__.update(algebra=algebra, operator=operator, _adjoint_of=of)
        return entry

    def __getattr__(self, name):
        # reached only for an attribute not stored: the rep of an adjoint
        # entry before its first read; adjoint_rep is looked up through its
        # module at call time, so that a wrapper put there sees the build
        kept = self.__dict__
        if name != "rep" or "_adjoint_of" not in kept:
            raise AttributeError(name)
        kept["rep"] = representation.adjoint_rep(*kept["_adjoint_of"])
        return kept["rep"]


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
        for kind in _KINDS:
            if name in getattr(self, kind + "s"):
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
    # utf-8-sig: a leading byte order mark is dropped, not read as content
    with open(path, "r", encoding="utf-8-sig") as handle:
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


def _undecodable(path: str) -> ParseError:
    """The ParseError of the first line of ``path`` that is not UTF-8,
    found by reading the bytes again, split into lines as the text read of
    :func:`_tokenize` splits them, a leading byte order mark dropped as it
    drops it, so that columns on line 1 count from the content (the error
    path only)."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8-sig", "surrogateescape")
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(f"not UTF-8: byte {exc.object[exc.start]:#04x} at column "
                              f"{exc.start + 1} ({exc.reason})", path, lineno)
    return ParseError("not UTF-8", path)


def _rational(tok: str, path: str, line: int) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError as exc:
        raise ParseError(str(exc), path, line) from None


def _integer(tok: str) -> int | None:
    """``tok`` as an int when it is an integer literal (decimal digits with
    an optional leading minus, the numerator rule of rational literals),
    else None.  ``str.isdecimal`` holds for exactly the Unicode digits
    (class Nd) that ``\\d`` matches in that rule, and ``int`` reads them."""
    return int(tok) if tok.removeprefix("-").isdecimal() else None


def _checked_integer(tok: str, path: str, line: int) -> int | None:
    """:func:`_integer`, with a token over the interpreter's limit on the
    digits of an int read from a string (``int`` raises ValueError) a
    ParseError at ``line``, as ``_rational`` reports a long literal."""
    try:
        return _integer(tok)
    except ValueError as exc:
        raise ParseError(str(exc), path, line) from None


def _index(tok: str, dim: int, path: str, line: int) -> int:
    value = _checked_integer(tok, path, line)
    if value is None or value < 1:
        raise ParseError(f"expected a 1-based index, got {tok!r}", path, line)
    if value > dim:
        raise ParseError(f"index {value} out of range 1..{dim}", path, line)
    return value - 1


def _int_scalar(sec: _RawSection, key: str, minimum: int = 0) -> int:
    if key not in sec.scalars:
        raise ParseError(f"{sec.kind} section needs {key!r}", sec.path, sec.line)
    tokens, line = sec.scalars[key]
    value = _checked_integer(tokens[0], sec.path, line) if len(tokens) == 1 else None
    if value is None:
        raise ParseError(f"{key!r} must be one integer", sec.path, line)
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


def _resolve(sec: _RawSection, ws: Workspace, *keys: str, optional=(),
             home: str | None = None, mismatch: str | None = None) -> tuple:
    """The names under the reference ``keys`` of ``sec``, None for an absent
    key of ``optional``.  Every key is read before any name is looked up;
    then each name, in order, must name an object of its kind in ``ws``
    (NameNotFound), and with ``home``, the key of a required algebra
    reference of ``sec``, every operator or representation must live on
    that algebra (DimMismatch, ``mismatch`` giving the text after the
    section name)."""
    names = {key: _name_scalar(sec, key, key not in optional) for key in keys}
    home = home and _name_scalar(sec, home)
    for key, name in names.items():
        if name is None:
            continue
        kind = _REF_KINDS[key]
        table = getattr(ws, kind + "s")
        if name not in table:
            raise NameNotFound(f"{sec.kind} {sec.name!r} references unknown {kind} {name!r}")
        if home is not None and kind != "algebra" and table[name].algebra != home:
            raise DimMismatch(f"{sec.kind} {sec.name!r}: " + (
                mismatch or f"{kind} {name!r} lives on a different algebra"))
    return tuple(names.values())


def _sparse_tensor(sec: _RawSection, key: str, dims: tuple[int, ...],
                   antisym_pair: tuple[int, int] | None = None,
                   split: bool = False) -> list[dict]:
    """The cells ``{position: Fraction}`` of the sparse lines ``i j .. val``
    under ``key``, read in one pass: positions in product order over
    ``dims`` (:func:`linalg.position`), zero values dropped, and the
    antisymmetric image of each line in the axes ``antisym_pair`` written
    with it.  The list holds one dict; with ``split``, one per index of the
    leading axis (a deformation's order), positions running over the other
    axes, and each cell goes to the dict of its order as its line is read.
    They are the cells of the brackets, the cochain parts and the
    deformation coefficients (:func:`_tensors`) and, decoded, the entries
    of per-index matrices (:func:`_matrices`).

    ``dims`` bounds each index axis.  An index token is looked up among the
    spellings ``1``..``d`` of its axis, and any other token goes through
    :func:`_index`, with its errors.  Each distinct value literal is parsed
    once, with its negation, and a cell written again is compared by
    identity before equality.  Conflicting duplicates and inconsistent
    antisymmetric images are load-time errors carrying the offending line
    (:func:`_conflict`); the builders that follow check nothing."""
    path, arity, lead = sec.path, len(dims), 1 if split else 0
    strides, size = [0] * arity, 1
    for axis in reversed(range(lead, arity)):
        strides[axis], size = size, size * dims[axis]
    spellings = {d: {str(k + 1): k for k in range(d)} for d in set(dims)}
    tables = [spellings[d] for d in dims]
    parts = [{} for _ in range(dims[0] if split else 1)]
    literals, zero = {}, False
    if antisym_pair is not None:
        a, b = antisym_pair
        swap = strides[a] - strides[b]
    for tokens, line in sec.lists.get(key, ()):
        if len(tokens) != arity + 1:
            raise ParseError(f"{key!r} entries take {arity} indices and one value", path, line)
        idx = list(map(dict.get, tables, tokens))
        if None in idx:
            idx = [_index(t, d, path, line) for t, d in zip(tokens, dims)]
        pos = sum(map(mul, idx, strides))
        cells = parts[idx[0]] if split else parts[0]
        pair = literals.get(tokens[-1])
        if pair is None:
            val = _rational(tokens[-1], path, line)
            pair = literals[tokens[-1]] = val, -val
            zero = zero or not val
        val, neg = pair
        old = cells.setdefault(pos, val)
        if old is not val and old != val:
            _conflict(sec, key, dims, antisym_pair, idx, line)
        if antisym_pair is not None:
            old = cells.setdefault(pos + (idx[b] - idx[a]) * swap, neg)
            if old is not neg and old != neg:
                idx[a], idx[b] = idx[b], idx[a]
                _conflict(sec, key, dims, antisym_pair, idx, line)
    if zero:
        parts = [{p: v for p, v in cells.items() if v} for cells in parts]
    return parts


def _conflict(sec: _RawSection, key: str, dims: tuple[int, ...],
              antisym_pair: tuple[int, int] | None, where: list, line: int):
    """Raise the ParseError of the cell at index tuple ``where`` under
    ``key``, written again at ``line`` with another value.  It names the
    line that wrote the cell first, found by reading the lines again up to
    ``line``, all of which have valid indices (the error path only)."""
    where = tuple(where)
    for tokens, first in sec.lists[key]:
        idx = [_index(t, d, sec.path, first) for t, d in zip(tokens, dims)]
        images = [tuple(idx)]
        if antisym_pair is not None:
            a, b = antisym_pair
            idx[a], idx[b] = idx[b], idx[a]
            images.append(tuple(idx))
        if where in images:
            break
    raise ParseError(f"{key!r} entry at {tuple(i + 1 for i in where)} conflicts with "
                     f"line {first}", sec.path, line)


def _tensors(sec: _RawSection, key: str, n: int, depth: int, width: int,
             orders: int = 0) -> list:
    """The :class:`Tensor` with ``depth`` basis indices of ``n`` values
    above vectors of length ``width`` written by the lines under ``key``,
    antisymmetric in its first two indices and certified so; with
    ``orders``, one per order of a leading order index."""
    lead = (orders,) if orders else ()
    parts = _sparse_tensor(sec, key, lead + (n,) * depth + (width,),
                           (len(lead), len(lead) + 1), split=bool(orders))
    return [Tensor(cells, n, depth, width, antisymmetric=True) for cells in parts]


def _matrices(sec: _RawSection, key: str, dims: tuple[int, ...]):
    """:func:`from_cells` of the lines under ``key``: one matrix per index
    of the leading axes of ``dims``, nested over them."""
    cells, = _sparse_tensor(sec, key, dims)
    return from_cells({digits(p, dims): v for p, v in cells.items()}, dims)


def _matrix_rows(sec: _RawSection, key: str, cols: int | None = None) -> Matrix:
    entries = sec.lists.get(key, [])
    if not entries:
        raise ParseError(f"{sec.kind} section needs at least one {key!r} line",
                         sec.path, sec.line)
    rows = [[_rational(t, sec.path, line) for t in tokens] for tokens, line in entries]
    width = len(rows[0])
    for r, (_, line) in zip(rows, entries):
        if len(r) != width:
            raise ParseError(f"ragged {key!r} rows", sec.path, line)
    if cols is not None and width != cols:
        raise ParseError(f"{key!r} rows must have {cols} entries", sec.path, entries[0][1])
    return Matrix(len(rows), width, [x for r in rows for x in r])


def _build_algebra(sec: _RawSection, ws: Workspace) -> LyAlgebra:
    dim = _int_scalar(sec, "dim", minimum=0)
    labels = None
    if "labels" in sec.scalars:
        tokens, line = sec.scalars["labels"]
        if len(tokens) != dim:
            raise ParseError(f"need {dim} labels", sec.path, line)
        labels = tuple(tokens)
    binary, = _tensors(sec, "binary", dim, 2, dim)
    ternary, = _tensors(sec, "ternary", dim, 3, dim)
    return LyAlgebra(dim, binary, ternary, labels)


def _build_operator(sec: _RawSection, ws: Workspace) -> OperatorEntry:
    alg_name, = _resolve(sec, ws, "algebra")
    algebra = ws.algebras[alg_name]
    tokens, line = sec.scalars.get("weight", (None, sec.line))
    if tokens is None:
        raise ParseError("operator section needs 'weight'", sec.path, sec.line)
    if len(tokens) != 1:
        raise ParseError("'weight' must be one rational", sec.path, line)
    weight = _rational(tokens[0], sec.path, line)
    if algebra.dim == 0 and "row" not in sec.lists:  # no rows: the 0x0 matrix
        matrix = Matrix.zero(0, 0)
    else:
        matrix = _matrix_rows(sec, "row", cols=algebra.dim if algebra.dim else None)
    if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
        raise DimMismatch(
            f"operator {sec.name!r} must be {algebra.dim}x{algebra.dim}")
    return OperatorEntry(alg_name, ReynoldsOperator(matrix, weight))


def _build_representation(sec: _RawSection, ws: Workspace) -> RepresentationEntry:
    alg_name, = _resolve(sec, ws, "algebra")
    op_name, = _resolve(sec, ws, "operator", optional=("operator",), home="algebra")
    algebra = ws.algebras[alg_name]
    op_entry = ws.operators[op_name] if op_name is not None else None

    if "adjoint" in sec.scalars:
        tokens, line = sec.scalars["adjoint"]
        if tokens != ["true"]:
            raise ParseError("'adjoint' only takes the value true", sec.path, line)
        return RepresentationEntry.adjoint(alg_name, op_name,
                                           (algebra, op_entry.op if op_entry else None))

    m = _int_scalar(sec, "module_dim", minimum=0)
    n = algebra.dim
    rho = _matrices(sec, "rho", (n, m, m))
    theta = _matrices(sec, "theta", (n, n, m, m))
    module_op = None
    if "module_op_row" in sec.lists:
        module_op = _matrix_rows(sec, "module_op_row", cols=m)
        if module_op.rows != m:
            raise DimMismatch(f"module operator of {sec.name!r} must be {m}x{m}")
    rep = Representation(n, m, rho, theta, module_op)
    return RepresentationEntry(alg_name, op_name, rep)


def _build_cochain(sec: _RawSection, ws: Workspace) -> CochainEntry:
    alg_name, rep_name, op_name = _resolve(
        sec, ws, "algebra", "representation", "operator", optional=("operator",),
        home="algebra")
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
    n = ws.algebras[alg_name].dim
    # an adjoint section's module is its algebra, this one: it is not built
    entry = ws.representations[rep_name]
    m = n if "_adjoint_of" in vars(entry) else entry.rep.module_dim

    def map_matrix(key):  # 'key = z a v' is entry (a, z) of an m x n matrix
        return _matrices(sec, key, (n, m)).transpose()

    if degree == 1:
        top = cochain_from_matrix(map_matrix("map"))
        cochain = RlyCochain(top, None) if which == "rly" else top
        return CochainEntry(alg_name, op_name, rep_name, which, cochain)

    top = cochain2_from_tensors(n, m, *_tensors(sec, "f", n, 2, m), *_tensors(sec, "g", n, 3, m))
    if which != "rly":
        return CochainEntry(alg_name, op_name, rep_name, which, top)
    cochain = RlyCochain(top, cochain_from_matrix(map_matrix("tail")))
    return CochainEntry(alg_name, op_name, rep_name, which, cochain)


def _build_deformation(sec: _RawSection, ws: Workspace) -> DeformationEntry:
    alg_name, op_name = _resolve(sec, ws, "algebra", "operator", home="algebra",
                                 mismatch="operator and algebra do not match")
    order = _int_scalar(sec, "order", minimum=1)
    base = ws.algebras[alg_name]
    n = base.dim

    # the order is a leading 1-based index; F and G are antisymmetric in the
    # two indices after it
    F, G = _tensors(sec, "F", n, 2, n, order), _tensors(sec, "G", n, 3, n, order)
    Tt = _matrices(sec, "T", (order, n, n))
    return DeformationEntry(alg_name, op_name, order, (base.binary, *F),
                            (base.ternary, *G), (ws.operators[op_name].op.matrix,) + Tt)


def _build_extension(sec: _RawSection, ws: Workspace) -> ExtensionEntry:
    total_name, total_op_name = _resolve(
        sec, ws, "total", "total_operator", home="total",
        mismatch="total operator and total algebra do not match")
    base_name, op_name, rep_name = _resolve(
        sec, ws, "base", "operator", "representation",
        optional=("base", "operator", "representation"))
    big = ws.algebras[total_name].dim
    inject = _matrix_rows(sec, "inject_row")
    project = _matrix_rows(sec, "project_row")
    if inject.rows != big or project.cols != big:
        raise DimMismatch(
            f"extension {sec.name!r}: inject/project must use the total coordinates")
    return ExtensionEntry(total_name, total_op_name, inject, project,
                          base_name, op_name, rep_name)


_BUILDERS = {"algebra": _build_algebra, "operator": _build_operator,
             "representation": _build_representation, "cochain": _build_cochain,
             "deformation": _build_deformation, "extension": _build_extension}


def load_workspace(paths) -> Workspace:
    """Parse one or more files into a workspace; names resolve across files."""
    sections: list[_RawSection] = []
    for path in map(str, paths):
        try:
            sections.extend(_tokenize(path))
        except UnicodeDecodeError:
            raise _undecodable(path) from None

    seen: dict[str, _RawSection] = {}
    for sec in sections:
        if sec.name in seen:
            raise ParseError(
                f"name {sec.name!r} already used at {seen[sec.name].path}:"
                f"{seen[sec.name].line}", sec.path, sec.line)
        seen[sec.name] = sec

    # algebras, operators and representations first, each kind in a pass of
    # its own, as the later kinds reference them
    ws = Workspace()
    for kinds in (("algebra",), ("operator",), ("representation",),
                  ("cochain", "deformation", "extension")):
        for sec in sections:
            if sec.kind in kinds:
                getattr(ws, sec.kind + "s")[sec.name] = _BUILDERS[sec.kind](sec, ws)
    return ws
