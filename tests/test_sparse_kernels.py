"""The sparse assembly, elimination and products against slow exact oracles:
the earlier dense builders (``tests/oracles.py``) and sympy's DomainMatrix
over QQ as an independent rank oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyreynolds.cohomology as cohomology
import lyreynolds.linalg as linalg
from lyreynolds import (
    Matrix,
    ReynoldsOperator,
    adjoint_rep,
    cochain_dim,
    cohomology_dims,
    delta,
    descendant_algebra,
    differential_matrix,
    induced_rep,
    partial,
)
from lyreynolds.algebra import abelian
from lyreynolds.cohomology import phi_matrix, unflatten
from lyreynolds.errors import CompositionNotZero
from lyreynolds.linalg import kernel_basis, pivot_columns, rank
from lyreynolds.representation import zero_rep
from tests.conftest import (
    _sl2,
    rand_fraction,
    rand_matrix,
    random_valid_triples,
    sl2_rational_triple,
    with_entry_added,
)
from tests.oracles import (
    delta_by_values,
    dense_matmul,
    dense_rref,
    differential_matrix_by_units,
    phi_matrix_by_kron,
)

COMPLEXES = ("ly", "ro", "rly")


def sl2_triple():
    """sl2 with its adjoint module and T = 2 Id at weight -1/2."""
    algebra = _sl2()
    op = ReynoldsOperator(Matrix.identity(3).scale(2), Fraction(-1, 2))
    return algebra, op, adjoint_rep(algebra, op)


# ---------------------------------------------------------------------------
# assembly: the new matrices equal the old builders exactly

def non_integral_triples(count: int):
    """Valid triples whose operator T has a non-integral entry."""
    triples = random_valid_triples(random.Random(36), 5 * count)
    return [t for t in triples
            if any(x.denominator > 1 for row in t[1].matrix.sparse for _, x in row)][:count]


def test_sl2_differentials_equal_unit_cochain_oracle():
    algebra, op, rep = sl2_triple()
    for which in COMPLEXES:
        for p in (1, 2, 3):
            assert differential_matrix(algebra, op, rep, which, p) \
                == differential_matrix_by_units(algebra, op, rep, which, p), (which, p)


def test_random_triples_differentials_equal_unit_cochain_oracle():
    # degree 3 of a dim-3 base costs the oracle seconds per matrix: there
    # the single-cochain test below and the sl2 test above stand in for it
    for algebra, op, rep in random_valid_triples(random.Random(31), 10):
        top = 3 if algebra.dim <= 2 else 2
        for which in COMPLEXES:
            for p in range(1, top + 1):
                assert differential_matrix(algebra, op, rep, which, p) \
                    == differential_matrix_by_units(algebra, op, rep, which, p), (which, p)


def test_assembly_over_a_denominator_equals_the_oracles():
    # triples whose T is not integral: the integer assembly divides by a
    # common denominator L > 1 (the phi denominators reach L^(2q+3)).  On
    # sl2 with T = (3/2) Id, phi vanishes and ro and rly have L = 2.
    dens = {"ro": set(), "rly": set(), "phi": set()}
    # degree 3 of a dim-3 random base is left out, as in the test above
    cases = [(sl2_rational_triple(), 3)] + [
        (t, 3 if t[0].dim <= 2 else 2) for t in non_integral_triples(8)]
    for (algebra, op, rep), top in cases:
        for which in COMPLEXES:
            for p in range(1, top + 1):
                mat = differential_matrix(algebra, op, rep, which, p)
                assert mat == differential_matrix_by_units(algebra, op, rep, which, p), \
                    (which, p)
                dens.get(which, set()).add(mat.integer[0])
        for p in (1, 2, 3):
            mat = phi_matrix(algebra, op, rep, p)
            assert mat == phi_matrix_by_kron(algebra, op, rep, p), p
            dens["phi"].add(mat.integer[0])
    assert all(max(found) > 1 for found in dens.values()), dens


@pytest.mark.parametrize("which", COMPLEXES)
def test_one_mutated_entry_breaks_the_square_zero_check(which, monkeypatch):
    algebra, op, rep = sl2_rational_triple()
    d1 = differential_matrix(algebra, op, rep, which, 1)
    d2 = differential_matrix(algebra, op, rep, which, 2)
    cohomology_dims(algebra, op, rep, which, 2)  # intact: passes
    # the column of a nonzero row of d1, so that the mutated d2 . d1 != 0
    j = next(k for k, row in enumerate(d1.integer[1]) if row)
    broken = with_entry_added(d2, 0, j)
    original = cohomology.differential_matrix

    def patched(algebra, op, rep, w, p):
        return broken if (w, p) == (which, 2) else original(algebra, op, rep, w, p)

    monkeypatch.setattr(cohomology, "differential_matrix", patched)
    with pytest.raises(CompositionNotZero):
        cohomology_dims(algebra, op, rep, which, 2)


def test_coboundaries_equal_value_level_oracle_at_degree_3():
    rng = random.Random(32)
    for algebra, op, rep in random_valid_triples(rng, 10):
        n, m = algebra.dim, rep.module_dim
        c = unflatten(3, n, m, [rand_fraction(rng) for _ in range(cochain_dim(3, n, m))])
        assert delta(algebra, rep, c) == delta_by_values(algebra, rep, c)
        assert partial(algebra, op, rep, c) == delta_by_values(
            descendant_algebra(algebra, op), induced_rep(algebra, op, rep), c)


def test_phi_matrix_equals_kron_chain_oracle():
    cases = [sl2_triple()] + random_valid_triples(random.Random(33), 12)
    for algebra, op, rep in cases:
        for p in (1, 2, 3):
            assert phi_matrix(algebra, op, rep, p) == phi_matrix_by_kron(algebra, op, rep, p)


def test_phi_matrix_equals_kron_chain_oracle_off_the_adjoint():
    # dense random T and weight, and a module operator drawn apart from T on
    # a module of another dimension; phi reads only the algebra's dimension,
    # T, T_V and w, so the triples need not satisfy any identity
    rng = random.Random(35)
    dens = set()
    for case in range(12):
        n = 1 + case % 3
        m = rng.choice([k for k in (1, 2, 3) if k != n])
        algebra = abelian(n)
        op = ReynoldsOperator(rand_matrix(rng, n, n), rand_fraction(rng, nonzero=True))
        rep = zero_rep(n, m, rand_matrix(rng, m, m))
        for p in range(1, 5 if n <= 2 else 4):
            mat = phi_matrix(algebra, op, rep, p)
            assert mat == phi_matrix_by_kron(algebra, op, rep, p), (n, m, p)
            dens.add(mat.integer[0])
    assert max(dens) > 1


# ---------------------------------------------------------------------------
# structural checks the sparse kernels make affordable at degree 3

def test_square_zero_and_chain_map_at_degree_3_on_random_triples():
    for algebra, op, rep in random_valid_triples(random.Random(34), 8):
        for which in COMPLEXES:
            lo = differential_matrix(algebra, op, rep, which, 3)
            hi = differential_matrix(algebra, op, rep, which, 4)
            assert (hi @ lo).is_zero(), which
        lhs = phi_matrix(algebra, op, rep, 4) @ differential_matrix(algebra, op, rep, "ly", 3)
        rhs = differential_matrix(algebra, op, rep, "ro", 3) @ phi_matrix(algebra, op, rep, 3)
        assert lhs == rhs


def test_sl2_rly_betti_through_degree_3():
    algebra, op, rep = sl2_triple()
    report = cohomology_dims(algebra, op, rep, "rly", 3)
    assert [row.betti for row in report.rows] == [3, 4, 1]


def test_sl2_ly_betti_through_degree_4_with_sympy_ranks():
    DomainMatrix, QQ = sympy_qq()
    algebra, op, rep = sl2_triple()
    report = cohomology_dims(algebra, op, rep, "ly", 4)
    assert [row.betti for row in report.rows] == [3, 1, 0, 0]
    prev_rank = 0
    for row in report.rows:
        d = differential_matrix(algebra, op, rep, "ly", row.degree)
        sympy_rank = to_domain(d, DomainMatrix, QQ).rank()
        assert row.dim_kernel == d.cols - sympy_rank
        assert row.dim_image_incoming == prev_rank
        prev_rank = sympy_rank


# ---------------------------------------------------------------------------
# elimination: the sparse RREF against the dense one and against sympy

def sympy_qq():
    matrices = pytest.importorskip("sympy.polys.matrices")
    domains = pytest.importorskip("sympy.polys.domains")
    return matrices.DomainMatrix, domains.QQ


def to_domain(m, DomainMatrix, QQ):
    rows = [[QQ(x.numerator, x.denominator) for x in m.row(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ)


# few distinct values and many zeros, so that ranks fall short often
entry_st = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1),
                                                Fraction(2), Fraction(1, 3)])


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    data = [draw(st.lists(entry_st, min_size=cols, max_size=cols)) for _ in range(rows)]
    # append combinations of earlier rows to force rank deficiency
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, len(data) - 1))
        c = draw(entry_st)
        data.append([x + c * y for x, y in zip(data[a], data[b])])
    return Matrix(len(data), cols, tuple(x for row in data for x in row))


def assert_same_rref(m):
    rows, pivots = linalg.eliminate(m, reduced=True)
    dense_rows, dense_pivots = dense_rref(m)
    assert pivots == dense_pivots
    assert rows == [{j: x for j, x in enumerate(row) if x}
                    for row in dense_rows[:len(pivots)]]
    assert all(x == 0 for row in dense_rows[len(pivots):] for x in row)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_sparse_rref_equals_dense_rref(m):
    assert_same_rref(m)


def test_sparse_rref_edge_shapes():
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert_same_rref(Matrix.zero(*shape))
    assert_same_rref(Matrix.zero(3, 4))
    assert_same_rref(Matrix.from_rows([[0, 1, 2], [0, 2, 4], [0, 0, 0]]))


def assert_agrees_with_sympy(m, DomainMatrix, QQ):
    rref, sympy_pivots = to_domain(m, DomainMatrix, QQ).rref()
    assert rank(m) == len(sympy_pivots)
    assert pivot_columns(m) == list(sympy_pivots)
    # the standard parametrization of the kernel, read off sympy's RREF
    dense = rref.to_Matrix()
    pivot_set = set(sympy_pivots)
    expected = []
    for fc in (c for c in range(m.cols) if c not in pivot_set):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(sympy_pivots):
            x = dense[r, fc]
            v[pc] = -Fraction(int(x.p), int(x.q))
        expected.append(tuple(v))
    assert kernel_basis(m).vectors == tuple(expected)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_elimination_agrees_with_sympy_on_random_matrices(m):
    assert_agrees_with_sympy(m, *sympy_qq())


def test_elimination_agrees_with_sympy_on_sl2_rly_d3():
    algebra, op, rep = sl2_triple()
    d3 = differential_matrix(algebra, op, rep, "rly", 3)
    assert (d3.rows, d3.cols) == (432, 144)
    assert_agrees_with_sympy(d3, *sympy_qq())


def test_cohomology_dims_eliminates_each_differential_once(ly2, tri_t, monkeypatch):
    rep = adjoint_rep(ly2, tri_t)
    for which in COMPLEXES:
        for p in (1, 2, 3):
            differential_matrix(ly2, tri_t, rep, which, p)  # assembled and cached
    calls = []
    original = linalg.eliminate

    def counting(m, reduced=False):
        calls.append((m.rows, m.cols))
        return original(m, reduced)

    monkeypatch.setattr(linalg, "eliminate", counting)
    for which in COMPLEXES:
        for top in (1, 2, 3):
            calls.clear()
            cohomology_dims(ly2, tri_t, rep, which, top)
            assert len(calls) == top, (which, top, calls)


def test_sparse_product_equals_dense_definition():
    rng = random.Random(35)
    for _ in range(30):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = Matrix.from_rows([[rand_fraction(rng) if rng.random() < 0.4 else 0
                               for _ in range(k)] for _ in range(r)], k)
        b = Matrix.from_rows([[rand_fraction(rng) if rng.random() < 0.4 else 0
                               for _ in range(c)] for _ in range(k)], c)
        assert a @ b == dense_matmul(a, b)
