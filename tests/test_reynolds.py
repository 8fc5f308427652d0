import random
from fractions import Fraction

import pytest

from lyreynolds import (
    Matrix,
    ReynoldsOperator,
    abelian,
    bracket2,
    bracket3,
    derivation_check,
    descendant_algebra,
    reynolds_from_derivation,
    scale_weight,
    verify_ly_axioms,
    verify_reynolds,
)
from lyreynolds.errors import (
    DimMismatch,
    InvalidReynolds,
    NotDerivation,
    SingularMatrix,
    ZeroScale,
)
from tests.conftest import identity_op, rand_fraction, random_valid_triples

F = Fraction


def test_triangular_family_member_verifies(ly2, tri_t):
    # hand check at (e1, e2): [Te1, Te2] = [2e1, 3e1+5e2] = 10 e1 and
    # T([Te1,e2] + [e1,Te2] - (1/5)[Te1,Te2]) = T((2+5-2) e1) = 10 e1
    report = verify_reynolds(ly2, tri_t)
    assert report.ok


def test_identity_is_weight_minus_one(ly2, sl2, leibniz3):
    for algebra in (ly2, sl2, leibniz3):
        assert verify_reynolds(algebra, identity_op(algebra.dim)).ok


def test_identity_fails_at_weight_zero(ly2):
    report = verify_reynolds(ly2, ReynoldsOperator(Matrix.identity(2), F(0)))
    assert not report.ok
    binary = report["reynolds-binary"]
    # lhs [e1,e2] = e1 while the right side doubles it; residual lhs - rhs = -e1
    assert binary.witness == (0, 1)
    assert binary.residual == (F(-1), F(0))


def test_zero_operator_any_weight(ly2, sl2):
    for algebra in (ly2, sl2):
        zero = ReynoldsOperator(Matrix.zero(algebra.dim, algebra.dim), F(7, 3))
        assert verify_reynolds(algebra, zero).ok


def test_rota_baxter_weight_zero(ly2):
    rb = ReynoldsOperator(Matrix.from_rows([[0, 1], [0, 0]]), F(0))
    report = verify_reynolds(ly2, rb)
    assert report.ok
    # at weight zero the two identities reduce to the weightless averaging
    # identities; re-check them with an independent expansion
    for i in range(2):
        for j in range(2):
            lhs = bracket2(ly2, rb(ly2.basis(i)), rb(ly2.basis(j)))
            rhs = rb.matrix.apply(tuple(
                a + b for a, b in zip(
                    bracket2(ly2, rb(ly2.basis(i)), ly2.basis(j)),
                    bracket2(ly2, ly2.basis(i), rb(ly2.basis(j))))))
            assert lhs == rhs
            for k in range(2):
                lhs3 = bracket3(ly2, rb(ly2.basis(i)), rb(ly2.basis(j)), rb(ly2.basis(k)))
                inner = [sum(t) for t in zip(
                    bracket3(ly2, ly2.basis(i), rb(ly2.basis(j)), rb(ly2.basis(k))),
                    bracket3(ly2, rb(ly2.basis(i)), ly2.basis(j), rb(ly2.basis(k))),
                    bracket3(ly2, rb(ly2.basis(i)), rb(ly2.basis(j)), ly2.basis(k)))]
                assert lhs3 == rb.matrix.apply(inner)


def test_verify_reynolds_dim_mismatch(ly2):
    with pytest.raises(DimMismatch):
        verify_reynolds(ly2, identity_op(3))


# ---------------------------------------------------------------------------
# weight rescaling

def test_scale_weight_examples(ly2, tri_t):
    doubled = scale_weight(identity_op(2), 2)
    assert doubled.matrix == Matrix.identity(2).scale(2)
    assert doubled.weight == F(-1, 2)
    assert verify_reynolds(ly2, doubled).ok

    assert scale_weight(tri_t, 1) == tri_t

    fifth = scale_weight(tri_t, F(1, 5))
    assert fifth.weight == F(-1)
    assert verify_reynolds(ly2, fifth).ok


def test_scale_weight_zero_rejected(tri_t):
    with pytest.raises(ZeroScale):
        scale_weight(tri_t, 0)


def test_scale_weight_round_trip(tri_t):
    rng = random.Random(5)
    for _ in range(10):
        c = rand_fraction(rng, nonzero=True)
        assert scale_weight(scale_weight(tri_t, c), 1 / c) == tri_t


# ---------------------------------------------------------------------------
# descendant algebra

def test_descendant_abelian_stays_abelian():
    rng = random.Random(1)
    algebra = abelian(3)
    op = ReynoldsOperator(
        Matrix.from_rows([[rand_fraction(rng) for _ in range(3)] for _ in range(3)]),
        rand_fraction(rng))
    descendant = descendant_algebra(algebra, op)
    assert descendant.binary == algebra.binary
    assert descendant.ternary == algebra.ternary


def test_descendant_identity_operator_is_same_algebra(ly2):
    descendant = descendant_algebra(ly2, identity_op(2))
    assert descendant.binary == ly2.binary
    assert descendant.ternary == ly2.ternary


def test_descendant_of_triangular_operator(ly2, tri_t):
    # expanded term by term: [e1,e2]_T = [2e1,e2] + [e1,3e1+5e2] - (1/5)[2e1,5e2]
    #                                  = 2e1 + 5e1 - 2e1 = 5e1
    # and {e1,e2,e2}_T = 25e1 + 10e1 + 10e1 - 20e1 = 25e1
    descendant = descendant_algebra(ly2, tri_t)
    assert descendant.binary[0][1] == (F(5), F(0))
    assert descendant.ternary[0][1][1] == (F(25), F(0))
    assert verify_ly_axioms(descendant).ok
    assert verify_reynolds(descendant, tri_t).ok


def test_descendant_rejects_invalid_operator(ly2):
    with pytest.raises(InvalidReynolds):
        descendant_algebra(ly2, ReynoldsOperator(Matrix.identity(2), F(0)))


def test_descendant_morphism_property():
    # T is a bracket morphism from the descendant to the source; spot check
    # on random valid triples of dim <= 3
    rng = random.Random(9)
    for algebra, op, _rep in random_valid_triples(rng, 6):
        descendant = descendant_algebra(algebra, op)
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                assert op.matrix.apply(descendant.binary[i][j]) == \
                    bracket2(algebra, op(algebra.basis(i)), op(algebra.basis(j)))


# ---------------------------------------------------------------------------
# derivations

def test_zero_map_is_derivation(ly2, sl2):
    for algebra in (ly2, sl2):
        assert derivation_check(
            algebra, Matrix.zero(algebra.dim, algebra.dim)).ok


def test_diag_derivation_on_two_dim(ly2):
    # D = diag(1, 0): D[e1,e2] = e1 = [De1,e2] + [e1,De2] and
    # D{e1,e2,e2} = e1 = {De1,e2,e2} + 0 + 0
    assert derivation_check(ly2, Matrix.from_rows([[1, 0], [0, 0]])).ok


def test_non_derivation_witness(ly2):
    # the map e1 -> e2, e2 -> 0 breaks the binary rule at (e1, e2):
    # D[e1,e2] = De1 = e2 but [De1,e2] + [e1,De2] = [e2,e2] = 0
    dm = Matrix.from_rows([[0, 0], [1, 0]])
    report = derivation_check(ly2, dm)
    assert not report.ok
    check = report["derivation-binary"]
    assert check.witness == (0, 1)
    assert check.residual == (F(0), F(1))


def test_scaled_identity_not_a_derivation(ly2):
    # D = Id fails the ternary rule: D{e1,e2,e2} = e1 but the sum gives 3 e1
    report = derivation_check(ly2, Matrix.identity(2))
    assert not report.ok
    assert not report["derivation-ternary"].passed


def test_reynolds_from_derivation_abelian():
    algebra = abelian(2)
    op = reynolds_from_derivation(algebra, Matrix.zero(2, 2), F(-2))
    # (0 - (-2) Id)^{-1}
    assert op.matrix == Matrix.identity(2).scale(F(1, 2))
    assert op.weight == F(-2)
    assert verify_reynolds(algebra, op).ok


def test_reynolds_from_derivation_singular(ly2):
    with pytest.raises(SingularMatrix):
        reynolds_from_derivation(ly2, Matrix.from_rows([[1, 0], [0, 0]]), F(0))


def test_reynolds_from_derivation_rejects_non_derivation(ly2):
    with pytest.raises(NotDerivation):
        reynolds_from_derivation(ly2, Matrix.identity(2), F(0))


def test_reynolds_from_derivation_shifts_by_the_full_weight(ly2):
    # D = diag(1, 0) is a derivation of the 2-dim algebra; at weight -2 the
    # operator is (D + 2 Id)^{-1} = diag(1/3, 1/2), and it verifies.  The
    # earlier half-weight shift gave (D + Id)^{-1}, which fails there.
    dm = Matrix.from_rows([[1, 0], [0, 0]])
    weight = F(-2)
    op = reynolds_from_derivation(ly2, dm, weight)
    assert op.matrix == Matrix.from_rows([[F(1, 3), 0], [0, F(1, 2)]])
    assert op.weight == weight
    assert verify_reynolds(ly2, op).ok


def test_weight_zero_derivation_inverse_is_rota_baxter():
    # invertible derivations exist on the abelian algebra; at weight zero the
    # inverse is a Rota-Baxter operator
    algebra = abelian(2)
    dm = Matrix.from_rows([[2, 1], [1, 1]])
    op = reynolds_from_derivation(algebra, dm, F(0))
    assert op.weight == 0
    assert op.matrix @ dm == Matrix.identity(2)
