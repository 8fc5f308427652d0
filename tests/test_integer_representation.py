"""The representation layer over integer tables: the derived pair map D, the
induced representation and the descendant algebra against their dense
oracles, also on modules whose dimension differs from the algebra's, the
verifiers on edge inputs (an empty module, a 1-dimensional algebra, coprime
denominators whose common powers pass 2^64)."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from conftest import _perturbed, _sl2, rand_matrix, random_reps, random_valid_triples
from oracles import (
    d_table_dense,
    descendant_algebra_dense,
    induced_rep_dense,
    verify_rep_dense,
    verify_reynolds_rep_dense,
)
from lyreynolds import (
    Matrix,
    ReynoldsOperator,
    abelian,
    adjoint_rep,
    cohomology_dims,
    d_map,
    descendant_algebra,
    direct_sum_rep,
    from_lie_algebra,
    induced_rep,
    two_dim_example,
    verify_rep,
    verify_reynolds_rep,
    zero_rep,
)
from lyreynolds.algebra import binary_from_sparse
from lyreynolds.representation import Representation, d_table

F = Fraction


def scalar_op(dim, c):
    """c Id, a Reynolds operator of weight -1/c on every algebra."""
    c = F(c)
    return ReynoldsOperator(Matrix.identity(dim).scale(c), -1 / c)


def perturbed(mat, i, j, by):
    rows = mat.to_rows()
    rows[i][j] += by
    return Matrix.from_rows(rows, mat.cols)


def assert_builds_match_oracles(algebra, op, rep):
    assert d_table(algebra, rep) == d_table_dense(algebra, rep)
    assert descendant_algebra(algebra, op) == descendant_algebra_dense(algebra, op)
    assert induced_rep(algebra, op, rep) == induced_rep_dense(algebra, op, rep)


# ---------------------------------------------------------------------------
# builds against the dense oracles

def test_d_table_matches_dense_oracle():
    rng = random.Random(41)
    inputs = random_reps(rng, 40) + random_valid_triples(rng, 20)
    for algebra, _op, rep in inputs:
        dense = d_table_dense(algebra, rep)
        assert d_table(algebra, rep) == dense
        for i, j in product(range(algebra.dim), repeat=2):
            assert d_map(algebra, rep, i, j) == dense[i][j]


def test_induced_rep_and_descendant_match_dense_oracles():
    for algebra, op, rep in random_valid_triples(random.Random(42), 30):
        assert_builds_match_oracles(algebra, op, rep)


@pytest.mark.parametrize("c", [1, -1, 2, -2, 3, -3, 4, -4])
def test_sl2_scalar_operators_match_dense_oracles(c):
    sl2 = _sl2()
    op = scalar_op(3, c)
    assert_builds_match_oracles(sl2, op, adjoint_rep(sl2, op))


# ---------------------------------------------------------------------------
# modules whose dimension differs from the algebra's: the flat tables of
# operator-valued maps have algebra digits in base n and module digits in
# base m, and every random triple above has m = n

def with_trivial_summand(rng, rep, k):
    """rep (+) a k-dimensional module with rho = theta = 0 and a random
    module operator: a representation on a module of dimension m + k."""
    return direct_sum_rep([rep, zero_rep(rep.algebra_dim, k, rand_matrix(rng, k, k))])


def test_modules_of_other_dimensions_match_dense_oracles():
    rng = random.Random(43)
    outcomes = Counter()
    for algebra, op, ad in random_valid_triples(rng, 24):
        for k in (1, 2, 3):
            rep = with_trivial_summand(rng, ad, k)
            assert rep.module_dim != algebra.dim
            assert verify_reynolds_rep(algebra, op, rep).ok
            assert induced_rep(algebra, op, rep) == induced_rep_dense(algebra, op, rep)
            # T_V moved at one or two entries: inside the adjoint block,
            # between the blocks, or inside the trivial one (which passes)
            tv = rep.module_op
            for _ in range(rng.randint(1, 2)):
                tv = _perturbed(rng, tv)
            moved = Representation(rep.algebra_dim, rep.module_dim, rep.rho, rep.theta, tv)
            report = verify_reynolds_rep(algebra, op, moved)
            oracle = verify_reynolds_rep_dense(algebra, op, moved)
            assert report == oracle and report.to_json() == oracle.to_json()
            outcomes.update(c.name for c in report.failures())
            outcomes["passed"] += report.ok
    assert outcomes["rho-module-op"] >= 10 and outcomes["theta-module-op"] >= 5, outcomes
    assert outcomes["passed"] >= 5, outcomes


def test_cohomology_is_additive_over_direct_sums():
    rng = random.Random(44)
    for algebra, op, ad in random_valid_triples(rng, 8):
        for k in (1, 2):
            trivial = zero_rep(algebra.dim, k, rand_matrix(rng, k, k))
            total = direct_sum_rep([ad, trivial])
            for which in ("ly", "ro", "rly"):
                betti = [[row.betti for row in cohomology_dims(algebra, op, r, which, 2).rows]
                         for r in (total, ad, trivial)]
                assert betti[0] == [a + b for a, b in zip(betti[1], betti[2])], which


# ---------------------------------------------------------------------------
# edge inputs of the integer read

def test_empty_module():
    algebra = two_dim_example()
    op = ReynoldsOperator(Matrix.from_rows([[2, 3], [0, 5]]), F(-1, 5))
    rep = zero_rep(2, 0, Matrix.zero(0, 0))
    assert verify_rep(algebra, rep).ok
    assert verify_reynolds_rep(algebra, op, rep).ok
    assert d_table(algebra, rep) == d_table_dense(algebra, rep)
    assert induced_rep(algebra, op, rep) == rep
    for which in ("ly", "ro", "rly"):
        report = cohomology_dims(algebra, op, rep, which, 3)
        assert [r.betti for r in report.rows] == [0, 0, 0]


def test_one_dimensional_algebra():
    # on a 1-dimensional algebra every identity of verify_rep has a repeated
    # index, so any rho and theta make a representation; the module-operator
    # identities still constrain T_V
    algebra = abelian(1)
    op = ReynoldsOperator(Matrix.from_rows([[F(3, 2)]]), F(1, 3))
    rho = (Matrix.from_rows([[1, F(1, 2)], [0, 2]]),)
    theta = ((Matrix.from_rows([[F(-1, 3), 0], [1, 1]]),),)
    for tv in (Matrix.zero(2, 2), Matrix.from_rows([[1, 2], [F(1, 5), 0]])):
        rep = Representation(1, 2, rho, theta, tv)
        assert verify_rep(algebra, rep) == verify_rep_dense(algebra, rep)
        assert verify_rep(algebra, rep).ok
        report = verify_reynolds_rep(algebra, op, rep)
        assert report == verify_reynolds_rep_dense(algebra, op, rep)
        assert report.ok == tv.is_zero()
        assert d_table(algebra, rep) == d_table_dense(algebra, rep)
    ad = adjoint_rep(algebra, op)
    assert_builds_match_oracles(algebra, op, ad)


def coprime_triples():
    """Valid triples whose entries have the coprime denominators 97, 101 and
    103: their common denominator L has L^4 > 2^64, and the verifiers
    accumulate up to L^7."""
    assert lcm(97, 101, 103) ** 4 > 2 ** 64
    lie2 = from_lie_algebra(binary_from_sparse(2, {(0, 1, 0): F(1, 103), (0, 1, 1): F(2, 97)}))
    for algebra in (lie2, _sl2()):
        op = scalar_op(algebra.dim, F(97, 101))
        yield algebra, op, adjoint_rep(algebra, op)


def test_coprime_denominators_valid():
    for algebra, op, rep in coprime_triples():
        assert verify_rep(algebra, rep).ok
        assert verify_reynolds_rep(algebra, op, rep).ok
        assert_builds_match_oracles(algebra, op, rep)


def test_coprime_denominators_failing_reports_equal_the_oracles():
    for algebra, op, rep in coprime_triples():
        theta = [list(row) for row in rep.theta]
        theta[0][1] = perturbed(theta[0][1], 1, 0, F(1, 97))
        bad = Representation(rep.algebra_dim, rep.module_dim, rep.rho,
                             tuple(map(tuple, theta)), rep.module_op)
        report = verify_rep(algebra, bad)
        oracle = verify_rep_dense(algebra, bad)
        assert not report.ok
        assert report == oracle and report.to_json() == oracle.to_json()
        first = report.failures()[0]
        assert first.residual == oracle.failures()[0].residual
        assert any(x.denominator % 97 == 0 for row in first.residual.sparse for _, x in row)

        bad_op = Representation(rep.algebra_dim, rep.module_dim, rep.rho, rep.theta,
                                perturbed(rep.module_op, 0, 1, F(1, 103)))
        report = verify_reynolds_rep(algebra, op, bad_op)
        oracle = verify_reynolds_rep_dense(algebra, op, bad_op)
        assert not report.ok
        assert report == oracle and report.to_json() == oracle.to_json()
