"""The one matrix format: every constructor gives the same canonical stored
rows, cancellation gives the canonical zero, and each operation over the
stored rows equals its dense definition in tests/oracles.py."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lyreynolds.linalg import Matrix, block_diag, lincomb
from tests.oracles import (
    dense_apply,
    dense_block_diag,
    dense_lincomb,
    dense_matmul,
    dense_transpose,
)

# mostly zeros, so that rows come out empty, sparse and full
entry_st = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1),
                                                Fraction(2), Fraction(-3, 4)])
coeff_st = st.sampled_from([0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])


@st.composite
def shaped(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return Matrix(rows, cols, tuple(draw(st.lists(entry_st, min_size=rows * cols,
                                                  max_size=rows * cols))))


@st.composite
def chained(draw):
    """Two same-shape matrices a, b and a c with as many rows as a has
    columns."""
    a = draw(shaped())
    return a, draw(shaped(a.rows, a.cols)), draw(shaped(a.cols))


def assert_canonical(m):
    assert len(m.sparse) == m.rows
    for row in m.sparse:
        assert all(x != 0 for _, x in row)
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)


@settings(max_examples=150, deadline=None)
@given(shaped())
def test_every_constructor_gives_the_same_matrix(m):
    rows, cols, entries = m.rows, m.cols, m.entries
    full = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    built = [
        Matrix(rows, cols, entries),
        Matrix.from_rows(full, cols),
        Matrix.from_columns([[row[j] for row in full] for j in range(cols)], rows),
        # explicit zeros among the accumulated entries
        Matrix.from_sparse_rows([dict(enumerate(row)) for row in full], cols),
    ]
    for other in built:
        assert_canonical(other)
        assert other == m and hash(other) == hash(m)
        assert other.entries == entries
        assert other.to_rows() == full
    assert all(m[i, j] == full[i][j] for i in range(rows) for j in range(cols))


@settings(max_examples=100, deadline=None)
@given(chained())
def test_cancellation_gives_the_canonical_zero(abc):
    a, _, c = abc
    zero = Matrix.zero(a.rows, a.cols)
    # [a | a] @ [c ; -c] = ac - ac, entry by entry
    left = Matrix.from_rows([row + row for row in a.to_rows()], 2 * a.cols)
    right = Matrix.from_rows(c.to_rows() + (-c).to_rows(), c.cols)
    for cancelled, expected in (
            (a - a, zero),
            (lincomb((Fraction(1, 2), 1, Fraction(-3, 2)), (a, a, a), zero), zero),
            (left @ right, Matrix.zero(a.rows, c.cols)),
            (Matrix.from_rows([[x - x for x in r] for r in a.to_rows()], a.cols), zero)):
        assert cancelled == expected and hash(cancelled) == hash(expected)
        assert cancelled.is_zero() and not any(cancelled.sparse)
        assert_canonical(cancelled)


@settings(max_examples=150, deadline=None)
@given(chained(), coeff_st, coeff_st, st.data())
def test_operations_equal_their_dense_definitions(abc, p, q, data):
    a, b, c = abc
    shape = (a.rows, a.cols)
    v = data.draw(st.lists(entry_st, min_size=a.cols, max_size=a.cols))
    checks = [
        (a + b, dense_lincomb((1, 1), (a, b), *shape)),
        (a - b, dense_lincomb((1, -1), (a, b), *shape)),
        (-a, dense_lincomb((-1,), (a,), *shape)),
        (a.scale(p), dense_lincomb((p,), (a,), *shape)),
        (a @ c, dense_matmul(a, c)),
        (a.transpose(), dense_transpose(a)),
        (lincomb((p, q, 1), (a, b, a), Matrix.zero(*shape)),
         dense_lincomb((p, q, 1), (a, b, a), *shape)),
        (block_diag([a, c, b]), dense_block_diag([a, c, b])),
    ]
    for got, expected in checks:
        assert_canonical(got)
        assert got == expected and hash(got) == hash(expected)
    assert a.apply(v) == dense_apply(a, v)
    assert all(a.column(j) == tuple(a[i, j] for i in range(a.rows)) for j in range(a.cols))
