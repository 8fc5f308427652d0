"""The fraction-free elimination (``linalg.eliminate``) and everything built
on it, against the dense Gauss-Jordan oracle (``tests/oracles.py``) and
sympy's DomainMatrix over QQ, on matrices whose entries have coprime
denominators, so that the integer form carries a large common denominator
and every row its own content."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyreynolds.linalg as linalg
from lyreynolds import Matrix, differential_matrix
from lyreynolds.errors import DimMismatch, SingularMatrix
from lyreynolds.linalg import (
    eliminate,
    inverse,
    kernel_basis,
    pivot_columns,
    rank,
    right_inverse,
    solve,
)
from lyreynolds.fileformat import load_workspace
from tests.oracles import dense_rref
from tests.test_sparse_kernels import sympy_qq, to_domain

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

F = Fraction
# zeros often, so that ranks fall short; the rest with coprime denominators
entry_st = st.sampled_from([F(0)] * 5 + [F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(5, 7),
                                         F(1, 1000003), F(-7, 1000003)])


@st.composite
def rational_matrices(draw, rows=st.integers(0, 7), cols=st.integers(0, 7)):
    """Any shape from 0 x n and n x 0 up to 7 x 7 (wide, tall and square),
    all-zero now and then, and with rows that combine earlier ones, so that
    many are rank-deficient."""
    r, c = draw(rows), draw(cols)
    if draw(st.integers(0, 9)) == 0:
        return Matrix.zero(r, c)
    data = [draw(st.lists(entry_st, min_size=c, max_size=c)) for _ in range(r)]
    for _ in range(draw(st.integers(0, 3)) if data else 0):
        a, b = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, len(data) - 1))
        k = draw(entry_st)
        data.insert(draw(st.integers(0, len(data))),
                    [x + k * y for x, y in zip(data[a], data[b])])
    return Matrix.from_rows(data, c)


def augmented(m, extra):
    """[m | extra] for a matrix ``extra`` with the rows of m."""
    return Matrix.from_rows([list(m.row(i)) + list(extra.row(i)) for i in range(m.rows)],
                            m.cols + extra.cols)


def oracle_solution(m, b):
    """The solution of m x = b with free variables zero, read off the dense
    RREF of [m | b]; None when b is not in the column space."""
    rows, pivots = dense_rref(augmented(m, Matrix.from_columns([b], m.rows)))
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x)


def sympy_solution(m, b, DomainMatrix, QQ):
    """The same solution, read off sympy's RREF of [m | b]."""
    rref, pivots = to_domain(augmented(m, Matrix.from_columns([b], m.rows)),
                             DomainMatrix, QQ).rref()
    if m.cols in pivots:
        return None
    dense = rref.to_Matrix()
    x = [F(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = F(int(dense[r, m.cols].p), int(dense[r, m.cols].q))
    return tuple(x)


def oracle_kernel(rows, pivots, cols):
    """The standard parametrization of the kernel from an RREF given as
    full rows (free variable set to 1)."""
    vectors = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        vectors.append(tuple(v))
    return tuple(vectors)


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_forward_pass_and_reduced_form_match_the_oracles(m):
    DomainMatrix, QQ = sympy_qq()
    dense_rows, dense_pivots = dense_rref(m)
    rref, sympy_pivots = to_domain(m, DomainMatrix, QQ).rref()
    assert list(sympy_pivots) == dense_pivots
    # the forward pass alone gives the pivots and the rank
    forward_rows, forward_pivots = eliminate(m)
    reduced_rows, reduced_pivots = eliminate(m, reduced=True)
    assert forward_pivots == reduced_pivots == dense_pivots
    assert rank(m) == len(reduced_pivots) == to_domain(m, DomainMatrix, QQ).rank()
    assert pivot_columns(m) == dense_pivots
    assert all(isinstance(x, int) for row in forward_rows for x in row.values())
    assert [min(row) for row in forward_rows] == forward_pivots
    # the reduced rows are the nonzero rows of the RREF, bit for bit
    assert reduced_rows == [{j: x for j, x in enumerate(row) if x}
                            for row in dense_rows[:len(dense_pivots)]]
    assert kernel_basis(m).vectors == oracle_kernel(dense_rows, dense_pivots, m.cols)
    dense = rref.to_Matrix()
    sympy_rows = [[F(int(dense[r, c].p), int(dense[r, c].q)) for c in range(m.cols)]
                  for r in range(len(sympy_pivots))]
    assert kernel_basis(m).vectors == oracle_kernel(sympy_rows, list(sympy_pivots), m.cols)


@given(rational_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_matches_the_oracles(m, data):
    DomainMatrix, QQ = sympy_qq()
    # a right-hand side in the column space (consistent), and an arbitrary one
    coeffs = data.draw(st.lists(entry_st, min_size=m.cols, max_size=m.cols))
    inside = m.apply(coeffs)
    anywhere = tuple(data.draw(st.lists(entry_st, min_size=m.rows, max_size=m.rows)))
    for b in (inside, anywhere):
        x = solve(m, b)
        assert x == oracle_solution(m, b) == sympy_solution(m, b, DomainMatrix, QQ)
        if x is not None:
            assert m.apply(x) == tuple(b)
    assert solve(m, inside) is not None


def test_solve_reports_inconsistent_systems():
    m = Matrix.from_rows([[F(1, 2), F(5, 7)], [F(1, 1000003), F(10, 7000021)]])
    assert rank(m) == 1
    assert solve(m, (1, 0)) is None
    assert oracle_solution(m, (F(1), F(0))) is None
    assert solve(m, (F(1, 2), F(1, 1000003))) == (F(1), F(0))


@given(rational_matrices(rows=st.integers(0, 5)))
@settings(max_examples=200, deadline=None)
def test_right_inverse_and_inverse_match_the_oracles(m):
    DomainMatrix, QQ = sympy_qq()
    identity = Matrix.identity(m.rows)
    if rank(m) < m.rows:
        with pytest.raises(SingularMatrix):
            right_inverse(m)
        if m.rows == m.cols:
            with pytest.raises(SingularMatrix):
                inverse(m)
        return
    rows, pivots = dense_rref(augmented(m, identity))
    expected = [[F(0)] * m.rows for _ in range(m.cols)]
    for r, pc in enumerate(pivots):
        expected[pc] = rows[r][m.cols:]
    got = right_inverse(m)
    assert got == Matrix.from_rows(expected, m.rows)
    assert m @ got == identity
    # the same columns read off sympy's RREF of [m | I]
    rref, sympy_pivots = to_domain(augmented(m, identity), DomainMatrix, QQ).rref()
    dense = rref.to_Matrix()
    from_sympy = [[F(0)] * m.rows for _ in range(m.cols)]
    for r, pc in enumerate(sympy_pivots):
        from_sympy[pc] = [F(int(dense[r, c].p), int(dense[r, c].q))
                          for c in range(m.cols, m.cols + m.rows)]
    assert got == Matrix.from_rows(from_sympy, m.rows)
    if m.rows == m.cols:
        assert inverse(m) == got and got @ m == identity
        if m.rows:
            inv = to_domain(m, DomainMatrix, QQ).inv().to_Matrix()
            assert got == Matrix.from_rows(
                [[F(int(inv[i, j].p), int(inv[i, j].q)) for j in range(m.rows)]
                 for i in range(m.rows)], m.rows)
    else:
        with pytest.raises(DimMismatch):
            inverse(m)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (4, 6), (6, 4)])
def test_empty_and_zero_shapes(shape):
    r, c = shape
    m = Matrix.zero(r, c)
    assert eliminate(m) == eliminate(m, reduced=True) == ([], [])
    assert rank(m) == 0 and pivot_columns(m) == []
    assert kernel_basis(m).vectors == tuple(
        tuple(F(int(i == j)) for i in range(c)) for j in range(c))
    assert solve(m, (0,) * r) == (F(0),) * c
    if r:
        assert solve(m, (1,) + (0,) * (r - 1)) is None


def test_integer_form_is_canonical():
    m = Matrix.from_rows([[F(1, 2), F(0), F(5, 7)], [F(0), F(-1, 1000003), F(2)]])
    den, rows = m.integer
    assert den == 14 * 1000003
    assert rows == (((0, 7 * 1000003), (2, 10 * 1000003)), ((1, -14), (2, 28 * 1000003)))
    # built from integer rows over a larger denominator, the same matrix
    same = Matrix.from_integer_rows([dict((j, 3 * v) for j, v in row) for row in rows],
                                    3, 3 * den)
    assert same.integer == m.integer and same == m and hash(same) == hash(m)
    assert same.sparse == m.sparse


# ---------------------------------------------------------------------------
# rank runs the forward pass over the side with fewer rows

@st.composite
def shaped_rows(draw, kind):
    """(rows, cols, data) of a tall, wide or square matrix of up to 12 rows
    or columns, 0 x k and k x 0 among them, all-zero now and then, and with
    rows overwritten by combinations of two others, so that many are
    rank-deficient."""
    short = draw(st.integers(0, 5))
    long_ = draw(st.integers(short + 1, 12))
    r, c = {"tall": (long_, short), "wide": (short, long_), "square": (short, short)}[kind]
    if draw(st.integers(0, 9)) == 0:
        return r, c, [[F(0)] * c for _ in range(r)]
    data = [draw(st.lists(entry_st, min_size=c, max_size=c)) for _ in range(r)]
    for _ in range(draw(st.integers(0, 3)) if r > 1 else 0):
        t, a, b = (draw(st.integers(0, r - 1)) for _ in range(3))
        k = draw(entry_st)
        data[t] = [x + k * y for x, y in zip(data[a], data[b])]
    return r, c, data


@pytest.mark.parametrize("kind", ["tall", "wide", "square"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_is_the_pivot_count_and_sympys_rank(kind, data):
    DomainMatrix, QQ = sympy_qq()
    r, c, rows = data.draw(shaped_rows(kind))
    fraction_only = Matrix.from_rows(rows, c)
    int_built = Matrix._of_integer(r, c, *Matrix.from_rows(rows, c).integer)
    assert "integer" not in vars(fraction_only) and "sparse" not in vars(int_built)
    expected = to_domain(Matrix.from_rows(rows, c), DomainMatrix, QQ).rank()
    for m in (fraction_only, int_built):
        assert rank(m) == len(eliminate(m)[1]) == expected


def test_rank_eliminates_the_side_with_fewer_rows(monkeypatch):
    shapes = []
    original = linalg.eliminate

    def spying(m, reduced=False):
        shapes.append((m.rows, m.cols))
        return original(m, reduced)

    monkeypatch.setattr(linalg, "eliminate", spying)
    for r, c in [(7, 3), (3, 7), (4, 4), (0, 5), (5, 0)]:
        m = Matrix.from_rows([[(i * c + j) % 3 for j in range(c)] for i in range(r)], c)
        rank(m)
        # a tall matrix is eliminated as its kept transpose
        assert (r <= c) or vars(m)["_transposed"] is m.transpose()
    assert shapes == [(3, 7), (3, 7), (4, 4), (0, 5), (0, 5)]


SAMPLE_TRIPLES = {"sl2": ("sl2", "Tsl2", "adsl2"), "module": ("ly2m", "Tm", "adtriv")}


@pytest.mark.parametrize("which", ["ly", "ro", "rly"])
@pytest.mark.parametrize("sample", sorted(SAMPLE_TRIPLES))
def test_the_rank_of_each_sample_differential_is_sympys(sample, which):
    DomainMatrix, QQ = sympy_qq()
    ws = load_workspace([str(SAMPLES / f"{sample}.lyr")])
    name, op, rep = SAMPLE_TRIPLES[sample]
    args = ws.algebra(name), ws.operator(op).op, ws.representation(rep).rep
    for degree in (1, 2, 3):
        d = differential_matrix(*args, which, degree)
        assert rank(d) == len(eliminate(d)[1]) == to_domain(d, DomainMatrix, QQ).rank()
