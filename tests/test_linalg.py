import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lyreynolds.errors import CompositionNotZero, DimMismatch, SingularMatrix
from lyreynolds.linalg import (
    Matrix,
    SubspaceBasis,
    block_diag,
    format_rational,
    inverse,
    kernel_basis,
    lincomb,
    parse_rational,
    pivot_columns,
    quotient_dim,
    rank,
    right_inverse,
    solve,
    unit_vector,
)
from tests.oracles import kron

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=20)


def mat(rows):
    return Matrix.from_rows(rows)


# ---------------------------------------------------------------------------
# rational literals

@pytest.mark.parametrize("text,value", [
    ("3", Fraction(3)),
    ("-7", Fraction(-7)),
    ("1/2", Fraction(1, 2)),
    ("-10/4", Fraction(-5, 2)),
    ("0", Fraction(0)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1.5", "", "+5", "1/-5",
                                  "1 / 2", "a", "2/", "/3"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(fractions_st)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(fractions_st, fractions_st, fractions_st)
def test_field_arithmetic_spot_checks(a, b, c):
    if a != 0:
        assert a * (1 / a) == 1
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# rank / kernel / quotient

def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(2, 2)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_empty_shapes():
    assert rank(Matrix.zero(0, 3)) == 0
    assert rank(Matrix.zero(3, 0)) == 0
    assert rank(Matrix.zero(0, 0)) == 0


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(2)).vectors == ()
    zero_kernel = kernel_basis(Matrix.zero(2, 2))
    assert zero_kernel.vectors == ((1, 0), (0, 1))
    collinear = kernel_basis(mat([[1, 2], [2, 4]]))
    assert collinear.vectors == ((Fraction(-2), Fraction(1)),)


def test_kernel_of_wide_zero():
    assert kernel_basis(Matrix.zero(0, 2)).vectors == ((1, 0), (0, 1))


def test_quotient_dim_examples():
    assert quotient_dim(Matrix.zero(1, 2), Matrix.zero(2, 1)) == 2
    assert quotient_dim(Matrix.identity(2), Matrix.zero(2, 0)) == 0
    assert quotient_dim(mat([[0, 0], [0, 1]]), mat([[1], [0]])) == 0


def test_quotient_dim_rejects_broken_complex():
    with pytest.raises(CompositionNotZero):
        quotient_dim(Matrix.identity(2), Matrix.identity(2))


def test_subspace_basis_rejects_dependent_vectors():
    with pytest.raises(Exception):
        SubspaceBasis(2, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))


small_matrix_st = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(fractions_st, min_size=m, max_size=m),
            min_size=n, max_size=n)))


@given(small_matrix_st)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = mat(rows)
    ker = kernel_basis(m)
    assert rank(m) + ker.dim == m.cols
    for v in ker.vectors:
        assert all(x == 0 for x in m.apply(v))


# wide sparse integer matrices, so that kernels of dimension up to 8 show up
wide_matrix_st = st.integers(0, 5).flatmap(
    lambda n: st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=m, max_size=m),
            min_size=n, max_size=n).map(lambda rows: Matrix(n, m, sum(rows, [])))))


@given(wide_matrix_st)
@settings(max_examples=80, deadline=None)
def test_kernel_basis_vectors_are_independent_and_killed(m):
    # kernel_basis does not rank its vectors again: they have full rank by
    # construction, which this checks
    ker = kernel_basis(m)
    assert rank(Matrix.from_rows(ker.vectors, m.cols)) == ker.dim == m.cols - rank(m)
    assert all(not any(m.apply(v)) for v in ker.vectors)
    assert ker == SubspaceBasis(m.cols, ker.vectors)


@given(small_matrix_st, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_row_permutation(rows, rng):
    m = mat(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rank(m) == rank(mat(shuffled))


# ---------------------------------------------------------------------------
# solve / inverse / products

def test_solve_consistent_and_inconsistent():
    m = mat([[1, 2], [2, 4]])
    assert solve(m, (1, 2)) is not None
    assert m.apply(solve(m, (1, 2))) == (1, 2)
    assert solve(m, (1, 0)) is None


def test_inverse_round_trip():
    m = mat([[2, 1], [1, 1]])
    assert inverse(m) @ m == Matrix.identity(2)
    with pytest.raises(SingularMatrix):
        inverse(mat([[1, 2], [2, 4]]))


@st.composite
def wide_matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(rows, 6))
    entries = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 3)]),
                            min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, tuple(Fraction(x) for x in entries))


@settings(max_examples=150, deadline=None)
@given(wide_matrices())
def test_right_inverse_is_columnwise_solve(m):
    assume(rank(m) == m.rows)
    expected = Matrix.from_columns(
        [solve(m, unit_vector(m.rows, i)) for i in range(m.rows)], m.cols)
    assert right_inverse(m) == expected
    assert m @ right_inverse(m) == Matrix.identity(m.rows)


def test_right_inverse_needs_full_row_rank():
    with pytest.raises(SingularMatrix, match="matrix of rank 1 < 2"):
        right_inverse(mat([[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(SingularMatrix, match="matrix of rank 1 < 2"):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(DimMismatch):
        inverse(mat([[1, 2, 3], [0, 1, 0]]))


def test_matmul_shapes():
    with pytest.raises(DimMismatch):
        mat([[1, 2]]) @ mat([[1, 2]])


def test_kron_identity():
    a = mat([[1, 2], [3, 4]])
    assert kron(Matrix.identity(1), a) == a
    k = kron(a, Matrix.identity(2))
    assert (k.rows, k.cols) == (4, 4)
    assert k[0, 0] == 1 and k[1, 1] == 1 and k[0, 2] == 2 and k[2, 0] == 3


def test_block_diag():
    b = block_diag([Matrix.identity(1), mat([[2, 0], [0, 2]])])
    assert (b.rows, b.cols) == (3, 3)
    assert b[0, 0] == 1 and b[1, 1] == 2 and b[0, 1] == 0


def test_lincomb_matches_scaled_sum():
    rng = random.Random(5)
    mats = [mat([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)])
            for _ in range(4)]
    zero = Matrix.zero(2, 3)
    coeffs = [Fraction(2, 3), 0, Fraction(-1), 5]
    expected = zero
    for c, m in zip(coeffs, mats):
        expected = expected + m.scale(c)
    assert lincomb(coeffs, mats, zero) == expected
    assert lincomb([0, 0, 0, 0], mats, zero) is zero


def test_pivot_columns_are_the_independent_columns():
    m = mat([[1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2]])
    assert pivot_columns(m) == [0, 2]
    assert rank(m) == 2


def test_deterministic_elimination():
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)]
            for _ in range(3)]
    m = mat(rows)
    assert kernel_basis(m) == kernel_basis(mat(rows))
    assert rank(m) == rank(mat(rows))
