"""Shared fixtures: canonical small algebras, valid operator families, and a
seeded sampler of verified (algebra, operator, representation) triples."""

from fractions import Fraction

import pytest

from lyreynolds import (
    LyAlgebra,
    Matrix,
    Representation,
    ReynoldsOperator,
    abelian,
    adjoint_rep,
    direct_sum_rep,
    from_leibniz,
    from_lie_algebra,
    two_dim_example,
    zero_rep,
)
from lyreynolds.algebra import binary_from_sparse, ternary_from_sparse


@pytest.fixture(scope="session")
def ly2() -> LyAlgebra:
    return two_dim_example()


@pytest.fixture(scope="session")
def tri_t() -> ReynoldsOperator:
    # upper-triangular family member (k1, k2, k) = (2, 3, 5), weight -1/k
    return ReynoldsOperator(Matrix.from_rows([[2, 3], [0, 5]]), Fraction(-1, 5))


@pytest.fixture(scope="session")
def sl2() -> LyAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    binary = binary_from_sparse(3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
    return from_lie_algebra(binary, labels=("h", "e", "f"))


@pytest.fixture(scope="session")
def leibniz3() -> LyAlgebra:
    # left Leibniz star product e3 * e1 = e1: nonabelian binary, zero ternary
    return _leibniz3()


def identity_op(dim: int) -> ReynoldsOperator:
    return ReynoldsOperator(Matrix.identity(dim), Fraction(-1))


def rand_fraction(rng, span: int = 4, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if value or not nonzero:
            return value


def rand_matrix(rng, rows: int, cols: int, span: int = 3) -> Matrix:
    return Matrix.from_rows(
        [[rand_fraction(rng, span) for _ in range(cols)] for _ in range(rows)], cols)


def random_valid_triples(rng, count: int):
    """Verified (algebra, operator, representation-with-module-op) triples of
    dimension at most 3, drawn from parametrized families that are valid by
    construction (each family's validity is itself covered by the tests)."""
    triples = []
    while len(triples) < count:
        family = rng.randrange(5)
        if family == 0:
            # canonical 2-dim algebra with a random member of the
            # upper-triangular operator family, weight -1/k
            algebra = two_dim_example()
            k1 = rand_fraction(rng, nonzero=True)
            k2 = rand_fraction(rng)
            k = rand_fraction(rng, nonzero=True)
            op = ReynoldsOperator(Matrix.from_rows([[k1, k2], [0, k]]), -1 / k)
        elif family == 1:
            # scalar operators c Id of weight -1/c on any algebra
            algebra = rng.choice([two_dim_example(), _sl2(), _leibniz3()])
            c = rand_fraction(rng, nonzero=True)
            op = ReynoldsOperator(Matrix.identity(algebra.dim).scale(c), -1 / c)
        elif family == 2:
            # abelian algebras admit any operator at any weight
            algebra = abelian(rng.randint(1, 3))
            op = ReynoldsOperator(rand_matrix(rng, algebra.dim, algebra.dim),
                                  rand_fraction(rng))
        elif family == 3:
            # random 2-dim Lie algebra [e1,e2] = a e1 + b e2 (Jacobi is free)
            a, b = rand_fraction(rng), rand_fraction(rng)
            algebra = from_lie_algebra(
                binary_from_sparse(2, {(0, 1, 0): a, (0, 1, 1): b}))
            op = identity_op(2)
        else:
            # the zero operator is Reynolds of any weight on any algebra
            algebra = rng.choice([two_dim_example(), _sl2()])
            op = ReynoldsOperator(Matrix.zero(algebra.dim, algebra.dim),
                                  rand_fraction(rng))
        rep = adjoint_rep(algebra, op)
        triples.append((algebra, op, rep))
    return triples


def _sl2() -> LyAlgebra:
    binary = binary_from_sparse(3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
    return from_lie_algebra(binary, labels=("h", "e", "f"))


def _leibniz3() -> LyAlgebra:
    data = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    data[2][0][0] = Fraction(1)
    return from_leibniz(data)


def sl2_rational_triple():
    """sl2 with its adjoint module and T = (3/2) Id at weight -2/3, as in
    samples/sl2.lyr: T is not integral, so the descendant brackets and the
    ro and rly differentials have denominators."""
    algebra = _sl2()
    op = ReynoldsOperator(Matrix.identity(3).scale(Fraction(3, 2)), Fraction(-2, 3))
    return algebra, op, adjoint_rep(algebra, op)


def with_entry_added(mat: Matrix, i: int, j: int) -> Matrix:
    """mat with 1 added to its entry (i, j), built from its integer form."""
    den, rows = mat.integer
    acc = [dict(row) for row in rows]
    acc[i][j] = acc[i].get(j, 0) + den
    return Matrix.from_integer_rows(acc, mat.cols, den)


def zero_rep_with_op(algebra_dim: int, module_dim: int, rng) -> "object":
    return zero_rep(algebra_dim, module_dim, rand_matrix(rng, module_dim, module_dim))


def random_structures(rng, count: int):
    """Seeded (algebra, operator) pairs of dimension at most 3, most of them
    failing some axiom or Reynolds identity.

    Nine in ten have a few random antisymmetric structure constants and a
    random operator and weight; the rest are valid pairs from
    :func:`random_valid_triples`, so that passing reports are compared too.
    """
    pairs = []
    while len(pairs) < count:
        if len(pairs) % 10 == 9:
            algebra, op, _rep = random_valid_triples(rng, 1)[0]
            pairs.append((algebra, op))
            continue
        # dimension 1 admits no nonzero bracket; entries sit at index pairs
        # i < j, so that no two of them are antisymmetric images of each other
        dim = rng.randint(2, 3)
        binary = binary_from_sparse(dim, {
            (*sorted(rng.sample(range(dim), 2)), rng.randrange(dim)):
                rand_fraction(rng, nonzero=True)
            for _ in range(rng.randint(0, 3))})
        ternary = ternary_from_sparse(dim, {
            (*sorted(rng.sample(range(dim), 2)), rng.randrange(dim), rng.randrange(dim)):
                rand_fraction(rng, nonzero=True)
            for _ in range(rng.randint(0, 3))})
        matrix = Matrix.from_rows(
            [[rand_fraction(rng) if rng.random() < 0.5 else 0 for _ in range(dim)]
             for _ in range(dim)], dim)
        pairs.append((LyAlgebra(dim, binary, ternary),
                      ReynoldsOperator(matrix, rand_fraction(rng))))
    return pairs


def _perturbed(rng, mat: Matrix) -> Matrix:
    """mat with one entry moved by a random nonzero amount."""
    entries = list(mat.entries)
    entries[rng.randrange(len(entries))] += rand_fraction(rng, nonzero=True)
    return Matrix(mat.rows, mat.cols, tuple(entries))


def random_reps(rng, count: int, extra: int = 0):
    """Seeded (algebra, operator, representation-with-module-op) triples on
    algebras of dimension 2-3, most of them failing some representation or
    module-operator identity.

    Each starts as a valid triple from :func:`random_valid_triples`; with
    ``extra`` > 0 its module is widened to the adjoint one (+) a zero module
    of dimension 1 to ``extra`` with a random module operator, so that V is
    wider than the algebra.  In two of every three, one to three entries of
    rho, theta or the module operator are then perturbed, so that passing
    reports are compared too.
    """
    triples = []
    while len(triples) < count:
        algebra, op, rep = random_valid_triples(rng, 1)[0]
        if algebra.dim < 2:
            continue
        if extra:
            rep = direct_sum_rep([rep, zero_rep_with_op(algebra.dim, rng.randint(1, extra),
                                                        rng)])
        if len(triples) % 3 != 2:
            n = algebra.dim
            rho, module_op = list(rep.rho), rep.module_op
            theta = [list(row) for row in rep.theta]
            for _ in range(rng.randint(1, 3)):
                where = rng.randrange(3)
                if where == 0:
                    i = rng.randrange(n)
                    rho[i] = _perturbed(rng, rho[i])
                elif where == 1:
                    i, j = rng.randrange(n), rng.randrange(n)
                    theta[i][j] = _perturbed(rng, theta[i][j])
                else:
                    module_op = _perturbed(rng, module_op)
            rep = Representation(n, rep.module_dim, tuple(rho),
                                 tuple(tuple(row) for row in theta), module_op)
        triples.append((algebra, op, rep))
    return triples
