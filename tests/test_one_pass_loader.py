"""The one-pass reader of sparse ``.lyr`` lines and the antisymmetry
certificate of the tensors it writes.

``fileformat._sparse_tensor`` reads each key's lines once: index tokens
looked up among their in-range spellings, each value literal parsed once,
each cell and its antisymmetric image written at its position as its line
is read, a deformation's orders into a dict each.  On seeded workspaces
and token mutations of them it must give the cells, or the error class,
text and line, of the earlier line-by-line reader
(``oracles.sparse_tensor_by_lines``).  The tensors it writes are certified
antisymmetric (``Tensor.antisymmetric``), so a loaded deformation is
checked without one antisymmetry scan, and so is the output of
``apply_equivalence``, which certifies what it writes; hand-built tensors
are still scanned.
"""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lyreynolds.algebra as algebra_module
from lyreynolds import (
    FormalIsomorphism,
    LyAlgebra,
    Matrix,
    ReynoldsOperator,
    TruncatedDeformation,
    apply_equivalence,
    binary_from_sparse,
    ternary_from_sparse,
)
from lyreynolds import fileformat
from lyreynolds.algebra import (
    Tensor,
    _antisymmetry_failure,
    _cells,
    slot_product,
    zero_binary,
    zero_ternary,
)
from lyreynolds.cli import main
from lyreynolds.errors import InvalidStructure, ParseError
from lyreynolds.fileformat import load_workspace
from lyreynolds.linalg import position

from conftest import _sl2, rand_fraction, rand_matrix
from oracles import (
    cells_by_walk,
    integer_by_regex,
    slot_product_unskipped,
    sparse_tensor_by_lines,
)
from test_loader_golden import mutate

F = Fraction

# value literals: equal values in other spellings, zeros and a leading zero
LITERALS = ("1", "-1", "2", "3", "1/2", "2/4", "-2/3", "4/6", "0", "-0", "007")


def spelled(rng, i: int) -> str:
    """The 1-based index i + 1, now and then with a leading zero."""
    return f"0{i + 1}" if rng.random() < 0.05 else str(i + 1)


def sparse_lines(rng, key: str, dims, pair=None, count: int = 6) -> list[str]:
    """Lines ``key = i j .. val`` at distinct random cells of ``dims``.
    With an antisymmetric ``pair`` each cell is written as either half, now
    and then as both halves in other spellings, and a cell on the diagonal
    as zero; a line is sometimes repeated, and rarely contradicted."""
    if 0 in dims:
        return []
    lines, used = [], set()
    for _ in range(count):
        idx = [rng.randrange(d) for d in dims]
        cell = list(idx)
        lit = rng.choice(LITERALS)
        if pair is not None:
            a, b = pair
            cell[a], cell[b] = sorted((idx[a], idx[b]))
            if idx[a] == idx[b] and rng.random() < 0.995:
                lit = "0"
        if tuple(cell) in used:
            continue
        used.add(tuple(cell))
        if pair is not None and rng.random() < 0.2:
            swapped = list(idx)
            swapped[a], swapped[b] = idx[b], idx[a]
            lines.append(f"{key} = " + " ".join(spelled(rng, i) for i in swapped)
                         + f" {-F(lit)}")
        line = f"{key} = " + " ".join(spelled(rng, i) for i in idx) + f" {lit}"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(line)
        if rng.random() < 0.002:
            lines.append(line.rsplit(" ", 1)[0] + " 5/7")
    return lines


def random_workspace(rng) -> str:
    """One workspace: an algebra, an operator, an adjoint and an explicit
    representation, a deformation to order 1-3, and cochains of degree 1
    and 2 (the second of the cone complex, with a tail)."""
    n, m, order = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
    out = ["[algebra a]", f"dim = {n}"]
    out += sparse_lines(rng, "binary", (n,) * 3, (0, 1))
    out += sparse_lines(rng, "ternary", (n,) * 4, (0, 1))
    out += ["", "[operator t]", "algebra = a", f"weight = {rng.choice(LITERALS)}"]
    out += ["row = " + " ".join(rng.choice(LITERALS) for _ in range(n)) for _ in range(n)]
    out += ["", "[representation ad]", "algebra = a", "operator = t", "adjoint = true"]
    out += ["", "[representation r]", "algebra = a", f"module_dim = {m}"]
    out += sparse_lines(rng, "rho", (n, m, m)) + sparse_lines(rng, "theta", (n, n, m, m))
    out += ["", "[deformation d]", "algebra = a", "operator = t", f"order = {order}"]
    out += sparse_lines(rng, "F", (order,) + (n,) * 3, (1, 2), 12)
    out += sparse_lines(rng, "G", (order,) + (n,) * 4, (1, 2), 16)
    out += sparse_lines(rng, "T", (order, n, n))
    out += ["", "[cochain c1]", "algebra = a", "representation = r", "degree = 1"]
    out += sparse_lines(rng, "map", (n, m))
    out += ["", "[cochain c2]", "algebra = a", "operator = t", "representation = ad",
            "complex = rly", "degree = 2"]
    out += sparse_lines(rng, "f", (n,) * 3, (0, 1)) + sparse_lines(rng, "g", (n,) * 4, (0, 1))
    out += sparse_lines(rng, "tail", (n, n))
    return "\n".join(out) + "\n"


def outcome(path):
    """The loaded workspace (its repr and the cells of every tensor), or
    the error class, text and line."""
    try:
        ws = load_workspace([path])
    except Exception as exc:  # a crash must be the same crash
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    tensors = [t for alg in ws.algebras.values() for t in (alg.binary, alg.ternary)]
    tensors += [t for d in ws.deformations.values() for t in d.F + d.G]
    assert all(t.antisymmetric for t in tensors)
    return ("workspace", repr(ws), [(t.shape, t.cells) for t in tensors])


def outcomes(text, directory, monkeypatch):
    """The outcome of loading ``text`` with the one-pass reader, and with
    the line-by-line oracle and the regular-expression integer rule."""
    path = directory / "w.lyr"
    path.write_text(text, encoding="utf-8")
    new = outcome(path)
    with monkeypatch.context() as mp:
        mp.setattr(fileformat, "_sparse_tensor", sparse_tensor_by_lines)
        mp.setattr(fileformat, "_integer", integer_by_regex)
        old = outcome(path)
    return new, old


def test_seeded_workspaces_load_as_under_the_line_by_line_oracle(tmp_path, monkeypatch):
    rng = random.Random(2501)
    loaded = 0
    for k in range(120):
        new, old = outcomes(random_workspace(rng), tmp_path, monkeypatch)
        assert new == old, k
        loaded += new[0] == "workspace"
    assert loaded >= 80


def test_mutated_workspaces_load_as_under_the_line_by_line_oracle(tmp_path, monkeypatch):
    rng = random.Random(2502)
    kinds = set()
    for k in range(600):
        files, where, what = mutate(rng, {"w.lyr": random_workspace(rng)})
        new, old = outcomes(files["w.lyr"], tmp_path, monkeypatch)
        assert new == old, (k, where, what)
        kinds.add(new[1] if new[0] == "error" else "workspace")
    assert {"workspace", "ParseError", "NameNotFound", "DimMismatch"} <= kinds


@pytest.mark.parametrize("text, message", [
    ("binary = 1 2 1 1\nbinary = 2 1 1 1\n",
     "'binary' entry at (2, 1, 1) conflicts with line 3"),
    ("binary = 1 1 2 3\n", "'binary' entry at (1, 1, 2) conflicts with line 3"),
    ("binary = 1 2 1 0\nbinary = 1 2 1 2/4\n",
     "'binary' entry at (1, 2, 1) conflicts with line 3"),
    ("ternary = 1 2 1 1 1/2\nternary = 2 1 1 1 -2/4\nternary = 2 1 1 1 1\n",
     "'ternary' entry at (2, 1, 1, 1) conflicts with line 3"),
])
def test_a_conflict_names_the_line_that_wrote_the_cell_first(tmp_path, text, message):
    path = tmp_path / "c.lyr"
    path.write_text("[algebra a]\ndim = 2\n" + text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert str(err.value).endswith(message)
    assert err.value.line == text.count("\n") + 2


def test_the_integer_rule_is_the_regular_expression_rule():
    """``str.isdecimal`` is the class of ``\\d``: on every code point, with
    and without a leading minus, and on tokens of several characters."""
    tokens = ["", "-", "--2", "+1", "1_0", "-0", "007", "12", "-12", "1-", "٣", "-٣٣",
              "²", "1²", "½", "Ⅻ", "1.0", "1e3", "0x1", " 1"]
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        tokens += (c, "-" + c)
        if len(tokens) > 4096:
            assert [fileformat._integer(t) for t in tokens] == list(map(integer_by_regex, tokens))
            tokens = []
    assert [fileformat._integer(t) for t in tokens] == list(map(integer_by_regex, tokens))


def lyr_deformation(algebra, op, d) -> str:
    """A ``.lyr`` workspace with the triple and the deformation ``D``, each
    antisymmetric pair written once, as ``perfbench/gen.py`` writes them."""
    n = algebra.dim
    out = ["[algebra A]", f"dim = {n}"]
    for key, t in (("binary", algebra.binary), ("ternary", algebra.ternary)):
        out += [f"{key} = " + " ".join(str(i + 1) for i in idx) + f" {v}"
                for idx, v in t.entries() if idx[0] < idx[1]]
    out += ["[operator T]", "algebra = A", f"weight = {op.weight}"]
    out += ["row = " + " ".join(map(str, op.matrix.row(i))) for i in range(n)]
    out += ["[representation ad]", "algebra = A", "adjoint = true", "operator = T"]
    out += ["[deformation D]", "algebra = A", "operator = T", f"order = {d.order}"]
    for k in range(1, d.order + 1):
        for key, t in (("F", d.F[k]), ("G", d.G[k])):
            out += [f"{key} = {k} " + " ".join(str(i + 1) for i in idx) + f" {v}"
                    for idx, v in t.entries() if idx[0] < idx[1]]
        out += [f"T = {k} {r + 1} {c + 1} {v}" for r, row in enumerate(d.Tt[k].sparse)
                for c, v in row]
    return "\n".join(out) + "\n"


def order3_sl2(rng):
    algebra = _sl2()
    c = rand_fraction(rng, nonzero=True)
    op = ReynoldsOperator(Matrix.identity(3).scale(c), -1 / c)
    phi = (Matrix.identity(3),) + tuple(rand_matrix(rng, 3, 3, 1) for _ in range(3))
    d = apply_equivalence(TruncatedDeformation.constant(algebra, op, 3),
                          FormalIsomorphism(3, phi))
    return algebra, op, d


@pytest.fixture
def scans(monkeypatch):
    """The tensors handed to ``algebra._antisymmetry_failure``, in order."""
    seen = []

    def counting(tensor):
        seen.append(tensor)
        return _antisymmetry_failure(tensor)

    monkeypatch.setattr(algebra_module, "_antisymmetry_failure", counting)
    return seen


def test_deform_check_of_a_loaded_order3_deformation_scans_no_tensor(tmp_path, scans, capsys):
    algebra, op, d = order3_sl2(random.Random(2503))
    scans.clear()
    path = tmp_path / "d.lyr"
    path.write_text(lyr_deformation(algebra, op, d), encoding="utf-8")
    assert main(["deform-check", str(path), "--name", "D"]) == 0
    assert "order 3: pass" in capsys.readouterr().out
    assert scans == []
    # the loaded series is the written one, and certified
    entry = load_workspace([path]).deformations["D"]
    assert entry.F == d.F and entry.G == d.G and entry.Tt == d.Tt
    assert all(t.antisymmetric for t in entry.F + entry.G)


def random_series(rng, n: int, order: int) -> TruncatedDeformation:
    """Random antisymmetric coefficients of every order, the base ones
    included, with no axiom asked of them."""
    def cells(arity):
        return {tuple(rng.randrange(n) for _ in range(arity)): rand_fraction(rng)
                for _ in range(rng.randint(0, 5))}

    def clean(entries):  # one half of each antisymmetric pair, none on the diagonal
        return {idx: v for idx, v in entries.items() if idx[0] < idx[1]}

    return TruncatedDeformation(
        order, tuple(binary_from_sparse(n, clean(cells(3))) for _ in range(order + 1)),
        tuple(ternary_from_sparse(n, clean(cells(4))) for _ in range(order + 1)),
        tuple(rand_matrix(rng, n, n) for _ in range(order + 1)))


def test_the_output_of_apply_equivalence_is_certified_not_scanned(tmp_path, scans):
    """psi moves both leading slots of an antisymmetric series alike, so the
    transported coefficients are certified antisymmetric where they are
    written, and TruncatedDeformation takes them without a scan; the
    certificate holds on every one of them."""
    rng = random.Random(2504)
    algebra, op, d = order3_sl2(rng)
    path = tmp_path / "d.lyr"
    path.write_text(lyr_deformation(algebra, op, d), encoding="utf-8")
    entry = load_workspace([path]).deformations["D"]
    inputs = [TruncatedDeformation(entry.order, entry.F, entry.G, entry.Tt)]
    for _ in range(40):
        n, order = rng.randint(1, 3), rng.randint(1, 3)
        inputs.append(random_series(rng, n, order))
    for d in inputs:
        n, order = d.dim, d.order
        iso = FormalIsomorphism(order, (Matrix.identity(n),) + tuple(
            rand_matrix(rng, n, n, rng.choice((1, 3))).scale(rand_fraction(rng))
            for _ in range(order)))
        scans.clear()
        moved = apply_equivalence(d, iso)
        assert scans == []
        for t in moved.F + moved.G:
            assert t.antisymmetric
            assert _antisymmetry_failure(t) is None


def test_a_hand_built_tensor_that_is_not_antisymmetric_is_rejected():
    one = {position((0, 1, 0), (2, 2, 2)): F(1)}
    binary = Tensor(one, 2, 2, 2)
    with pytest.raises(InvalidStructure, match=re.escape(
            "binary constants not antisymmetric at (0,1)")):
        LyAlgebra(2, binary, zero_ternary(2))
    ternary = Tensor({position((1, 0, 1, 1), (2,) * 4): F(1, 3)}, 2, 3, 2)
    with pytest.raises(InvalidStructure, match=re.escape(
            "ternary constants not antisymmetric in first two slots at (0,1,1)")):
        LyAlgebra(2, zero_binary(2), ternary)
    zt = Matrix.zero(2, 2)
    with pytest.raises(InvalidStructure, match=re.escape(
            "order 1: binary coefficient not antisymmetric at (0,1)")):
        TruncatedDeformation(1, (zero_binary(2), binary), (zero_ternary(2),) * 2, (zt, zt))
    with pytest.raises(InvalidStructure, match=re.escape(
            "order 1: ternary coefficient not antisymmetric at (0,1,1)")):
        TruncatedDeformation(1, (zero_binary(2),) * 2, (zero_ternary(2), ternary), (zt, zt))


def test_the_sparse_builders_certify_what_a_scan_confirms(scans):
    rng = random.Random(2505)
    for _ in range(50):
        n = rng.randint(1, 3)
        cells = {tuple(rng.randrange(n) for _ in range(3)): rand_fraction(rng)
                 for _ in range(4)}
        cells = {idx: v for idx, v in cells.items() if idx[0] != idx[1]}
        if any((j, i, k) in cells for i, j, k in cells):
            continue
        t = binary_from_sparse(n, cells)
        g = ternary_from_sparse(n, {idx + (0,): v for idx, v in cells.items()})
        assert t.antisymmetric and g.antisymmetric
        assert _antisymmetry_failure(t) is None and _antisymmetry_failure(g) is None


def test_an_operator_on_a_zero_dimensional_algebra_takes_no_rows(tmp_path, capsys):
    path = tmp_path / "z.lyr"
    text = "[algebra z]\ndim = 0\n\n[operator t]\nalgebra = z\nweight = 1\n"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path), "--name", "t"]) == 0
    op = load_workspace([path]).operators["t"].op
    assert (op.matrix.rows, op.matrix.cols) == (0, 0)
    # a row line is one row too many
    path.write_text(text + "row =\n", encoding="utf-8")
    assert main(["verify", str(path), "--name", "t"]) == 2
    assert "operator 't' must be 0x0" in capsys.readouterr().err


@pytest.mark.parametrize("data, line, message", [
    (b"\xff\xfe[algebra a]\ndim = 1\n", 1, "byte 0xff at column 1 (invalid start byte)"),
    # a byte order mark is not counted in the column
    (b"\xef\xbb\xbf\xff\xfe[algebra a]\ndim = 1\n", 1,
     "byte 0xff at column 1 (invalid start byte)"),
    (b"\xef\xbb\xbf[algebra a]\ndim = 1\n# caf\xe9\n", 3,
     "byte 0xe9 at column 6 (invalid continuation byte)"),
    # lines end as the text read ends them: \r, \r\n and \n
    (b"[algebra a]\r\ndim = 2\rbinary = 1 2 1 \xe9\n", 3,
     "byte 0xe9 at column 16 (invalid continuation byte)"),
    (b"[algebra a]\ndim = 1\n# caf\xe9\n", 3, "byte 0xe9 at column 6 (invalid continuation byte)"),
    # a file longer than one chunk of the text read, undecodable at its end
    (b"[algebra a]\ndim = 1\n" + b"# comment\n" * 2000 + b"\xc3(\n", 2003,
     "byte 0xc3 at column 1 (invalid continuation byte)"),
])
def test_a_file_that_is_not_utf8_is_a_parse_error_at_its_line(tmp_path, capsys, data, line,
                                                               message):
    path = tmp_path / "bad.lyr"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert (err.value.path, err.value.line) == (str(path), line)
    assert main(["verify", str(path), "--name", "a"]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: not UTF-8: {message}\n"


def test_a_file_with_a_byte_order_mark_verifies_as_the_file_without_it(tmp_path, capsys):
    original = Path(__file__).resolve().parent.parent / "samples" / "two_dim.lyr"
    marked = tmp_path / "two_dim.lyr"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    names = re.findall(r"^\[\w+\s+(\S+)\]$", original.read_text(), re.M)
    assert len(names) == 6
    for name in names:
        for flags in ([], ["--json"]):
            outputs = []
            for path in (original, marked):
                assert main(["verify", str(path), "--name", name, *flags]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on the digits of an int")
@pytest.mark.parametrize("text, line", [
    ("dim = " + "1" * 5000 + "\n", 2),
    ("dim = 2\nbinary = 1 " + "1" * 5000 + " 1 1\n", 3),
    ("dim = 2\nternary = 1 2 -" + "2" * 5000 + " 1 1\n", 3),
])
def test_an_integer_over_the_digit_limit_is_a_parse_error_at_its_line(tmp_path, capsys, text,
                                                                      line):
    path = tmp_path / "long.lyr"
    path.write_text("[algebra a]\n" + text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert err.value.line == line
    assert main(["verify", str(path), "--name", "a"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: Exceeds the limit")


def test_slot_product_skipping_zero_map_orders_equals_the_unskipped_product():
    rng = random.Random(2506)
    for _ in range(200):
        dim, arity, orders = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        size = dim ** (arity + 1)
        series = [{rng.randrange(size): rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}
                  for _ in range(orders)]
        maps = [tuple(() if zero else tuple((x, rng.randint(-3, 3)) for x in range(dim)
                                             if rng.random() < 0.5)
                      for _ in range(dim))
                for zero in (rng.random() < 0.5 for _ in range(rng.randint(1, orders + 1)))]
        stride = dim ** rng.randrange(arity + 1)
        assert slot_product(series, maps, stride, dim) == \
            slot_product_unskipped(series, maps, stride, dim)


def test_the_cells_of_a_read_are_those_of_a_walk_of_the_fraction_view():
    rng = random.Random(2507)
    for _ in range(100):
        n, depth = rng.randint(1, 3), rng.choice((2, 3))
        t = Tensor({rng.randrange(n ** (depth + 1)): rand_fraction(rng, nonzero=True)
                    for _ in range(rng.randint(0, 8))}, n, depth, n)
        den = t.den * rng.randint(1, 3)
        cells = _cells(t.scaled(den), n, depth)
        assert cells == cells_by_walk(t, depth, den)
        assert all(type(cell[-1]) is int for cell in cells)
