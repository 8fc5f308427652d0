"""Structures read and hash themselves once.

Tensors store their nonzero cells and keep the least common denominator of
those and their integer tables (``algebra.Tensor``); algebras, operators,
representations and matrices keep their hash.  Equal structures must still
compare and hash equal however they were built, an integer read from kept
reads must equal one taken from plain tuples, and no command of the CLI
builds the nested view of a tensor.
"""

import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import lyreynolds.algebra as algebra_module
from lyreynolds import cli
from lyreynolds import (
    LyAlgebra,
    Matrix,
    Representation,
    ReynoldsOperator,
    TruncatedDeformation,
    adjoint_rep,
    descendant_algebra,
    induced_rep,
    two_dim_example,
    verify_ly_axioms,
)
from lyreynolds.algebra import IntegerRead, Tensor, binary_from_sparse, ternary_from_sparse
from lyreynolds.fileformat import load_workspace

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SL2 = str(SAMPLES / "sl2.lyr")
TWO_DIM = str(SAMPLES / "two_dim.lyr")

F = Fraction


def clear_engine_caches():
    """Cold functools caches in every engine module, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("lyreynolds"):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    value.cache_clear()


def load_sl2():
    ws = load_workspace([SL2])
    return ws.algebras["sl2"], ws.operators["Tsl2"].op, ws.representations["adsl2"].rep


def plain(node):
    """A nesting of tuples (a Tensor among them) as plain lists."""
    return [plain(x) for x in node] if isinstance(node, (tuple, Tensor)) else node


def plain_tuples(node):
    return tuple(map(plain_tuples, node)) if isinstance(node, (tuple, Tensor)) else node


def assert_same(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a) == hash(a)  # the kept value


# ---------------------------------------------------------------------------
# equal structures, equal hashes


def test_algebra_from_ints_fractions_dense_and_sparse_is_one():
    sparse = two_dim_example()
    binary = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
    ternary = [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
               [[[0, 0], [-1, 0]], [[0, 0], [0, 0]]]]
    from_ints = LyAlgebra(2, binary, ternary, ("e1", "e2"))
    from_fractions = LyAlgebra(2, [[[F(x) for x in v] for v in row] for row in binary],
                               [[[[F(x) for x in v] for v in col] for col in row]
                                for row in ternary], ("e1", "e2"))
    loaded = load_workspace([TWO_DIM]).algebras["ly2"]
    for other in (from_ints, from_fractions, loaded):
        assert_same(sparse, other)
    assert isinstance(sparse.binary, Tensor) and isinstance(loaded.ternary, Tensor)


def test_matrix_and_operator_from_ints_fractions_and_integer_rows():
    rows = [[F(3, 2), 0, 0], [0, F(3, 2), 0], [0, 0, F(3, 2)]]
    from_fractions = Matrix.from_rows(rows)
    from_integer = Matrix.from_integer_rows([{0: 3}, {1: 3}, {2: 3}], 3, 2)
    assert_same(from_fractions, from_integer)
    assert_same(Matrix.from_rows([[1, 2], [0, 5]]),
                Matrix.from_rows([[F(1), F(2)], [F(0), F(5)]]))
    _, op, _ = load_sl2()
    assert_same(op, ReynoldsOperator(from_integer, F(-2, 3)))
    assert_same(op, ReynoldsOperator(from_fractions, F(-4, 6)))
    assert_same(ReynoldsOperator(Matrix.identity(2), -1),
                ReynoldsOperator(Matrix.from_rows([[1, 0], [0, 1]]), F(-1)))


def test_representation_adjoint_and_entry_by_entry_is_one(tmp_path):
    algebra, op, rep = load_sl2()
    lines = [Path(SL2).read_text().split("[representation")[0], "[representation byhand]",
             "algebra = sl2", "operator = Tsl2", "module_dim = 3"]
    for i, mat in enumerate(rep.rho):
        lines += [f"rho = {i + 1} {a + 1} {b + 1} {x}"
                  for a, row in enumerate(mat.sparse) for b, x in row]
    for i, row_of_mats in enumerate(rep.theta):
        for j, mat in enumerate(row_of_mats):
            lines += [f"theta = {i + 1} {j + 1} {a + 1} {b + 1} {x}"
                      for a, row in enumerate(mat.sparse) for b, x in row]
    lines += ["module_op_row = 3/2 0 0", "module_op_row = 0 3/2 0", "module_op_row = 0 0 3/2"]
    path = tmp_path / "byhand.lyr"
    path.write_text("\n".join(lines) + "\n")
    by_hand = load_workspace([str(path)]).representations["byhand"].rep
    assert_same(rep, by_hand)
    assert_same(rep, adjoint_rep(algebra, op))
    from_fractions = Representation(
        3, 3, tuple(Matrix.from_rows(m.to_rows()) for m in rep.rho),
        tuple(tuple(Matrix.from_rows(m.to_rows()) for m in row) for row in rep.theta),
        Matrix.from_rows([[F(3, 2), 0, 0], [0, F(3, 2), 0], [0, 0, F(3, 2)]]))
    assert_same(rep, from_fractions)


def test_descendant_of_a_fresh_load_and_rebuilt_from_its_data_is_one():
    algebra, op, rep = load_sl2()
    descendant = descendant_algebra(algebra, op)
    induced = induced_rep(algebra, op, rep)
    hash(descendant), hash(induced)  # kept before the comparisons below
    rebuilt = LyAlgebra(3, plain(descendant.binary), plain(descendant.ternary),
                        descendant.labels)
    assert_same(descendant, rebuilt)
    clear_engine_caches()
    again, op2, rep2 = load_sl2()
    fresh = descendant_algebra(again, op2)
    assert fresh is not descendant
    assert_same(descendant, fresh)
    assert_same(induced, induced_rep(again, op2, rep2))
    assert_same(op, op2)


# ---------------------------------------------------------------------------
# the integer read


def reads_equal(a: IntegerRead, b: IntegerRead) -> bool:
    return all(getattr(a, slot) == getattr(b, slot) for slot in IntegerRead.__slots__)


def test_integer_read_from_kept_reads_equals_one_from_plain_tuples():
    algebra, op, rep = load_sl2()
    assert (algebra.binary.den, algebra.ternary.den) == (1, 1)

    def both(*structure):
        """The read of sl2 with ``structure``, and of plain copies of it."""
        kept = IntegerRead((algebra.binary,), (algebra.ternary,), *structure)
        copied = IntegerRead((plain_tuples(algebra.binary),),
                             (plain_tuples(algebra.ternary),), *structure)
        return kept, copied

    # L = 1, the tensors' own denominator, then L = 6 > 1 for T = (3/2) Id
    # at weight -2/3, then L = 1 again, from the kept table
    for structure, den in (((), 1), (((op.matrix,), op.weight), 6),
                           (((op.matrix,), op.weight, (rep.rho, rep.theta)), 6), ((), 1)):
        kept, copied = both(*structure)
        assert kept.den == copied.den == den
        assert reads_equal(kept, copied)
    assert set(algebra.binary._tables) == {1, 6}

    # a table at L > 1 with no table at the own denominator kept: the first
    # read of the fresh tensors is at L = 6
    fresh, op2, _ = load_sl2()
    kept = IntegerRead((fresh.binary,), (fresh.ternary,), (op2.matrix,), op2.weight)
    assert set(fresh.binary._tables) == {6}
    assert reads_equal(kept, both((op.matrix,), op.weight)[1])


def test_a_matrix_is_rescaled_once_per_denominator():
    # T = (3/2) Id at weight -2/3 reads at L = 6; rho, theta and T_V = T
    # keep their rows times 6 and give them out again as they are
    _, op, rep = load_sl2()
    structure = ((op.matrix, rep.module_op), op.weight, (rep.rho, rep.theta))
    first, again = IntegerRead((), (), *structure), IntegerRead((), (), *structure)
    assert first.den == 6
    mats = (*rep.rho, *(mat for row in rep.theta for mat in row))
    firsts = (*first.rows[0], *(rows for row in first.rows[1] for rows in row))
    agains = (*again.rows[0], *(rows for row in again.rows[1] for rows in row))
    for mat, rows, rows_again in zip(mats, firsts, agains):
        den, own = mat.integer
        assert rows is rows_again
        assert rows == tuple(tuple((j, 6 // den * v) for j, v in row) for row in own)
        assert set(mat._tables) == ({6} if den != 6 else set())
    assert all(a is b for a, b in zip(first.t_row + first.t_col, again.t_row + again.t_col))
    # a read at a matrix's own denominator takes its integer rows
    assert IntegerRead(rows=(rep.rho,)).rows[0][0] is rep.rho[0].integer[1]


def test_integer_read_of_a_series_with_own_denominators_above_one():
    algebra, op, _ = load_sl2()
    f1 = [[[F(k + 1, 4) * (i - j) for k in range(3)] for j in range(3)] for i in range(3)]
    g1 = [[[[F(l - k, 3) * (i - j) for l in range(3)] for k in range(3)]
           for j in range(3)] for i in range(3)]
    d = TruncatedDeformation.first_order(algebra, op, f1, g1, Matrix.zero(3, 3))
    assert d.F[0] is algebra.binary  # a frozen tensor is taken as it is
    assert (d.F[1].den, d.G[1].den) == (4, 3)
    kept = IntegerRead(d.F, d.G, d.Tt, op.weight)
    copied = IntegerRead([plain_tuples(t) for t in d.F], [plain_tuples(t) for t in d.G],
                         d.Tt, op.weight)
    assert kept.den == copied.den == 12
    assert reads_equal(kept, copied)
    # once more, now from the kept tables at 12
    assert reads_equal(IntegerRead(d.F, d.G, d.Tt, op.weight), copied)


def test_verifying_and_hashing_an_algebra_takes_memory_by_its_cells_not_its_dim():
    # the two-dimensional example inside dim = 120, the other basis vectors
    # central: a read that held dim**depth leaves per tensor would peak at
    # about 134 MiB here
    n = 120
    algebra = LyAlgebra(n, binary_from_sparse(n, {(0, 1, 0): 1}),
                        ternary_from_sparse(n, {(0, 1, 1, 0): 1}))
    tracemalloc.start()
    try:
        report = verify_ly_axioms(algebra)
        hash(algebra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2 * 2 ** 20, peak


def test_no_cli_command_builds_a_nested_view(monkeypatch, capsys):
    """The engine reads tensors by their cells: on the cohomology, extension
    and deformation commands, and on verify of every object of the samples,
    no tensor builds the nested view that t[i][j].., iteration and repr
    read.  Each command runs on cold caches, as in a fresh process."""
    builds = Counter()
    original = Tensor._nested.func

    def counting(tensor):
        builds[tensor.dim, tensor.depth, tensor.width] += 1
        return original(tensor)

    monkeypatch.setattr(Tensor, "_nested", property(counting))
    files = [str(path) for path in sorted(SAMPLES.glob("*.lyr"))]
    names = [name for path in files
             for name in re.findall(r"^\[\w+\s+(\S+)\]$", Path(path).read_text(), re.M)]
    assert {"sl2", "adsl2", "E1", "chidefect", "stretch"} <= set(names)
    triple = ["--operator", "Tsl2", "--rep", "adsl2"]
    commands = [
        ["cohomology", *files, "--algebra", "sl2", *triple, "--complex", "rly",
         "--max-degree", "3"],
        ["classify-extensions", *files, "--algebra", "sl2", *triple],
        ["classify-extensions", *files, "--algebra", "ly2m", "--operator", "Tm",
         "--rep", "adtriv"],
        ["deform-check", *files, "--name", "stretch"],
    ] + [["verify", *files, "--name", name] for name in names]
    for argv in commands:
        clear_engine_caches()
        assert cli.main(argv) == 0, argv
    assert "representative 1:" in capsys.readouterr().out
    assert not builds
    # the view itself still builds, through the patch, on a public read
    algebra, _, _ = load_sl2()
    assert algebra.binary[1][2][0] == 1 and builds == {(3, 2, 3): 1}


def test_the_loader_hands_every_tensor_on_frozen(monkeypatch):
    """Algebras, degree-2 cochains and each order of a deformation's F and
    G leave the loader as Tensors of their shape, which _freeze takes as
    they are: no entry is walked a second time."""
    import lyreynolds.cohomology as cohomology_module
    import lyreynolds.deformation as deformation_module

    seen = []
    original = algebra_module._freeze

    def recorded(data, dim, depth, width=None, *rest):
        seen.append((data, dim, depth, dim if width is None else width))
        return original(data, dim, depth, width, *rest)

    for module in (algebra_module, cohomology_module, deformation_module):
        monkeypatch.setattr(module, "_freeze", recorded)
    clear_engine_caches()
    ws = load_workspace(sorted(SAMPLES.glob("*.lyr")))
    for entry in ws.deformations.values():
        TruncatedDeformation(entry.order, entry.F, entry.G, entry.Tt)
    assert ws.algebras and ws.cochains and ws.deformations
    depths = Counter(depth for _, _, depth, _ in seen)
    assert depths[2] >= len(ws.algebras) and depths[3] >= len(ws.algebras)
    for data, dim, depth, width in seen:
        assert isinstance(data, Tensor)
        assert (len(data), data.depth, data.width) == (dim, depth, width)


# ---------------------------------------------------------------------------
# Matrix.apply on the integer form

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def matrices_and_vectors(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(st.lists(st.one_of(st.just(F(0)), rationals),
                            min_size=rows * cols, max_size=rows * cols))
    vector = tuple(draw(st.lists(rationals, min_size=cols, max_size=cols)))
    m = Matrix(rows, cols, tuple(entries))
    if draw(st.booleans()):
        # the same matrix built from its integer form, its view never read
        den = draw(st.integers(1, 30))
        m = Matrix.from_integer_rows(
            [{j: (x * den).numerator for j, x in enumerate(entries[i * cols:(i + 1) * cols])
              if (x * den).denominator == 1} for i in range(rows)], cols, den)
        assert "sparse" not in m.__dict__
    return m, vector


@settings(max_examples=200, deadline=None)
@given(matrices_and_vectors())
def test_apply_equals_the_dense_product(case):
    m, v = case
    out = m.apply(v)
    dense = m.to_rows()
    expected = tuple(sum((dense[i][j] * v[j] for j in range(m.cols)), F(0))
                     for i in range(m.rows))
    assert out == expected
    assert all(type(x) is Fraction for x in out)
