import random
from fractions import Fraction

import pytest

from lyreynolds import (
    FormalIsomorphism,
    Matrix,
    ReynoldsOperator,
    TruncatedDeformation,
    abelian,
    adjoint_rep,
    apply_equivalence,
    cohomologous,
    cohomology_dims,
    d_rly,
    infinitesimal,
    is_cocycle,
    trivialize_first_order,
    verify_deformation,
    verify_ly_axioms,
    verify_reynolds,
)
from lyreynolds.algebra import zero_binary, zero_ternary
from lyreynolds.cohomology import (
    RlyCochain,
    cochain_from_matrix,
    tensors_from_cochain2,
    matrix_from_cochain,
    unflatten_rly,
)
from lyreynolds.errors import (
    DimMismatch,
    InvalidInput,
    InvalidStructure,
    NotCoboundary,
    OrderMismatch,
    OrderTooLow,
    ShapeMismatch,
)
from lyreynolds.linalg import rank
from tests.conftest import (
    rand_fraction,
    rand_matrix,
    random_structures,
    random_valid_triples,
)
from tests.oracles import cocycle_space, inverse_by_matrices

F = Fraction


def kernel_sample(rng, algebra, op, rep, span=2):
    """A random rational combination of the degree-2 cone kernel basis."""
    ker = cocycle_space(algebra, op, rep, "rly", 2)
    dim = len(ker.vectors[0]) if ker.vectors else 0
    coeffs = [rand_fraction(rng, span) for _ in ker.vectors]
    flat = [sum((c * v[i] for c, v in zip(coeffs, ker.vectors)), F(0))
            for i in range(dim)]
    return unflatten_rly(2, algebra.dim, rep.module_dim, flat)


def deformation_from_cochain(algebra, op, c):
    nu, psi = tensors_from_cochain2(c.top)
    return TruncatedDeformation.first_order(algebra, op, nu, psi,
                                            matrix_from_cochain(c.tail))


def test_constant_deformation_verifies(ly2, tri_t):
    report = verify_deformation(ly2, tri_t, TruncatedDeformation.constant(ly2, tri_t, 2))
    assert report.ok
    assert len(report.orders) == 3


def test_order_zero_is_the_algebra_and_operator_battery():
    # the same identities under the deformation names: LY1-LY6 are
    # antisymmetry-*, cyclic-* and derivation-*, reynolds-* are operator-*
    failing = 0
    for algebra, op in random_structures(random.Random(8), 60):
        order0 = verify_deformation(
            algebra, op, TruncatedDeformation.constant(algebra, op, 1)).orders[0]
        failing += not order0.ok
        undeformed = verify_ly_axioms(algebra).checks + verify_reynolds(algebra, op).checks
        assert [c.name for c in order0.checks] == [
            "antisymmetry-binary", "antisymmetry-ternary", "cyclic-binary",
            "cyclic-mixed", "derivation-binary", "derivation-ternary",
            "operator-binary", "operator-ternary"]
        assert [(c.passed, c.witness, c.residual) for c in order0.checks] == \
            [(c.passed, c.witness, c.residual) for c in undeformed]
    assert failing > 30


def test_base_terms_must_match(ly2, tri_t, sl2):
    deformation = TruncatedDeformation.constant(sl2, identity_op_sl2(), 1)
    with pytest.raises(Exception):
        verify_deformation(ly2, tri_t, deformation)


def identity_op_sl2():
    from lyreynolds import ReynoldsOperator

    return ReynoldsOperator(Matrix.identity(3), F(-1))


def test_construction_rejects_bad_shapes(ly2, tri_t):
    with pytest.raises(OrderTooLow):
        TruncatedDeformation(0, (ly2.binary,), (ly2.ternary,), (tri_t.matrix,))
    sym = list(list(list(v) for v in row) for row in zero_binary(2))
    sym[0][0] = (F(1), F(0))
    with pytest.raises(InvalidStructure):
        TruncatedDeformation.first_order(ly2, tri_t, tuple(map(tuple, sym)),
                                         zero_ternary(2), Matrix.zero(2, 2))


def test_repeat_bracket_first_order_passes(ly2, tri_t):
    # F_1 = the binary bracket, G_1 = 0, T_1 = 0.  At order 1 the cyclic
    # identity reduces to twice the cyclic sum of [[x,y],z], which vanishes
    # on this algebra: at (e1,e2,e2) it reads [[e1,e2],e2] + [[e2,e1],e2]
    # + [[e2,e2],e1] = e1 - e1 + 0 = 0, and likewise everywhere.
    deformation = TruncatedDeformation.first_order(
        ly2, tri_t, ly2.binary, zero_ternary(2), Matrix.zero(2, 2))
    report = verify_deformation(ly2, tri_t, deformation)
    assert report.ok
    assert is_cocycle(ly2, tri_t, adjoint_rep(ly2, tri_t), "rly",
                      infinitesimal(deformation))


def test_kernel_lifts_give_valid_first_order(ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    rng = random.Random(31)
    for _ in range(10):
        c = kernel_sample(rng, ly2, tri_t, rep)
        deformation = deformation_from_cochain(ly2, tri_t, c)
        assert verify_deformation(ly2, tri_t, deformation).ok
        assert is_cocycle(ly2, tri_t, rep, "rly", infinitesimal(deformation))


def test_non_cocycle_perturbation_fails_order_one(ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    rng = random.Random(32)
    found = False
    for _ in range(20):
        flat = [rand_fraction(rng) for _ in range(10)]
        c = unflatten_rly(2, 2, 2, flat)
        if is_cocycle(ly2, tri_t, rep, "rly", c):
            continue
        found = True
        deformation = deformation_from_cochain(ly2, tri_t, c)
        report = verify_deformation(ly2, tri_t, deformation)
        assert not report.ok
        n, check = report.first_failure()
        assert n == 1 and check.witness is not None
        break
    assert found


def test_infinitesimal_of_constant_is_zero(ly2, tri_t):
    assert infinitesimal(TruncatedDeformation.constant(ly2, tri_t, 1)).is_zero()


def test_infinitesimal_requires_order_one(ly2, tri_t):
    deformation = TruncatedDeformation.constant(ly2, tri_t, 1)
    trimmed = TruncatedDeformation(1, deformation.F, deformation.G, deformation.Tt)
    assert infinitesimal(trimmed) is not None
    with pytest.raises(Exception):
        TruncatedDeformation(0, deformation.F[:1], deformation.G[:1],
                             deformation.Tt[:1])


# ---------------------------------------------------------------------------
# equivalences

def test_identity_isomorphism_is_identity_transport(ly2, tri_t):
    deformation = TruncatedDeformation.constant(ly2, tri_t, 2)
    iso = FormalIsomorphism.identity(2, 2)
    assert apply_equivalence(deformation, iso) == deformation


def test_order_mismatch(ly2, tri_t):
    with pytest.raises(OrderMismatch):
        apply_equivalence(TruncatedDeformation.constant(ly2, tri_t, 2),
                          FormalIsomorphism.identity(2, 1))


def test_iso_base_term_must_be_identity():
    with pytest.raises(InvalidInput):
        FormalIsomorphism(1, (Matrix.zero(2, 2), Matrix.zero(2, 2)))


def test_transported_constant_has_bounding_infinitesimal(ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    rng = random.Random(33)
    for _ in range(10):
        phi1 = rand_matrix(rng, 2, 2)
        # transporting along Id - phi1 t gives infinitesimal d(phi1) exactly
        iso = FormalIsomorphism.first_order(phi1.scale(-1))
        moved = apply_equivalence(TruncatedDeformation.constant(ly2, tri_t, 1), iso)
        assert verify_deformation(ly2, tri_t, moved).ok
        target = d_rly(ly2, tri_t, rep,
                       RlyCochain(cochain_from_matrix(phi1), None))
        inf = infinitesimal(moved)
        assert (inf.top - target.top).is_zero()
        assert (inf.tail - target.tail).is_zero()


def test_equivalent_deformations_have_cohomologous_infinitesimals(ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    rng = random.Random(34)
    for _ in range(6):
        c = kernel_sample(rng, ly2, tri_t, rep)
        deformation = deformation_from_cochain(ly2, tri_t, c)
        phi1 = rand_matrix(rng, 2, 2)
        moved = apply_equivalence(deformation, FormalIsomorphism.first_order(phi1))
        assert verify_deformation(ly2, tri_t, moved).ok
        a = infinitesimal(deformation)
        b = infinitesimal(moved)
        assert cohomologous(ly2, tri_t, rep, "rly", a, b)


def test_apply_equivalence_round_trip(ly2, tri_t):
    rng = random.Random(35)
    rep = adjoint_rep(ly2, tri_t)
    c = kernel_sample(rng, ly2, tri_t, rep)
    deformation = deformation_from_cochain(ly2, tri_t, c)
    iso = FormalIsomorphism.first_order(rand_matrix(rng, 2, 2))
    assert apply_equivalence(apply_equivalence(deformation, iso), iso.inverse()) \
        == deformation


def test_iso_inverse_is_truncated_inverse(ly2):
    rng = random.Random(36)
    for order in (1, 2, 3):
        phis = [Matrix.identity(2)] + [rand_matrix(rng, 2, 2) for _ in range(order)]
        iso = FormalIsomorphism(order, tuple(phis))
        psi = iso.inverse()
        # the composed series must be Id + O(t^{order+1})
        for s in range(order + 1):
            acc = Matrix.zero(2, 2)
            for i in range(s + 1):
                acc = acc + iso.phi[i] @ psi.phi[s - i]
            assert acc == (Matrix.identity(2) if s == 0 else Matrix.zero(2, 2))


def test_iso_inverse_on_integer_rows_equals_the_matrix_recursion():
    """The recursion on integer rows over one denominator gives the
    coefficients of the recursion on Matrix products, in integer form, on
    dims 1-4 and orders 1-4, with Fraction entries and for the identity; the
    inverse of the inverse is the series itself."""
    rng = random.Random(39)
    for n in range(1, 5):
        for order in range(1, 5):
            isos = [FormalIsomorphism.identity(n, order)] + [
                FormalIsomorphism(order, (Matrix.identity(n),) + tuple(
                    rand_matrix(rng, n, n, rng.choice((1, 3))).scale(rand_fraction(rng))
                    for _ in range(order)))
                for _ in range(3)]
            for iso in isos:
                psi = iso.inverse()
                assert psi.phi == inverse_by_matrices(iso)
                assert all("integer" in vars(p) for p in psi.phi[1:])
                assert psi.inverse() is iso
                fresh = FormalIsomorphism(order, psi.phi).inverse()
                assert fresh.phi == iso.phi == inverse_by_matrices(psi)


def test_iso_inverse_is_kept_and_is_an_involution(ly2, tri_t):
    rng = random.Random(38)
    for order in (1, 2, 3):
        phis = [Matrix.identity(2)] + [rand_matrix(rng, 2, 2) for _ in range(order)]
        iso = FormalIsomorphism(order, tuple(phis))
        psi = iso.inverse()
        assert iso.inverse() is psi and psi.inverse() is iso
        # the kept inverses equal ones computed afresh, on new objects
        assert FormalIsomorphism(order, iso.phi).inverse() == psi
        assert FormalIsomorphism(order, psi.phi).inverse() == iso
        # so transports, which read the inverse, are those of fresh series
        moved = FormalIsomorphism(order, (Matrix.identity(2),) + tuple(
            rand_matrix(rng, 2, 2) for _ in range(order)))
        deformation = apply_equivalence(TruncatedDeformation.constant(ly2, tri_t, order), moved)
        for g in (iso, psi):
            assert apply_equivalence(deformation, g) == \
                apply_equivalence(deformation, FormalIsomorphism(order, g.phi))


# ---------------------------------------------------------------------------
# first-order trivialization

def test_trivialize_constant(ly2, tri_t):
    deformation = TruncatedDeformation.constant(ly2, tri_t, 1)
    iso, transported = trivialize_first_order(ly2, tri_t, deformation)
    assert transported == deformation


def test_trivialize_manufactured_coboundary(ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    rng = random.Random(37)
    for _ in range(10):
        phi1 = rand_matrix(rng, 2, 2)
        target = d_rly(ly2, tri_t, rep,
                       RlyCochain(cochain_from_matrix(phi1), None))
        deformation = deformation_from_cochain(ly2, tri_t, target)
        assert verify_deformation(ly2, tri_t, deformation).ok
        iso, transported = trivialize_first_order(ly2, tri_t, deformation)
        # transported along the kept inverse: as along a fresh series
        assert transported == apply_equivalence(
            deformation, FormalIsomorphism(1, iso.inverse().phi))
        assert transported.F[1] == zero_binary(2)
        assert transported.G[1] == zero_ternary(2)
        assert transported.Tt[1] == Matrix.zero(2, 2)
        assert verify_deformation(ly2, tri_t, transported).ok


def test_trivialize_obstructed(ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    ker = cocycle_space(ly2, tri_t, rep, "rly", 2)
    d1 = differential_matrix_rly1(ly2, tri_t, rep)
    image_rank = rank(d1)
    hit = None
    for vec in ker.vectors:
        cols = [d1.column(j) for j in range(d1.cols)] + [list(vec)]
        if rank(Matrix.from_columns(cols, d1.rows)) > image_rank:
            hit = vec
            break
    assert hit is not None
    c = unflatten_rly(2, 2, 2, hit)
    deformation = deformation_from_cochain(ly2, tri_t, c)
    assert verify_deformation(ly2, tri_t, deformation).ok
    with pytest.raises(NotCoboundary):
        trivialize_first_order(ly2, tri_t, deformation)


BASE_MISMATCH = "base coefficients must equal the undeformed structure"


def test_trivialize_rejects_deformation_of_another_algebra(ly2, tri_t):
    deformation = TruncatedDeformation.constant(abelian(2), tri_t, 2)
    with pytest.raises(InvalidInput, match=BASE_MISMATCH):
        trivialize_first_order(ly2, tri_t, deformation)
    with pytest.raises(InvalidInput, match=BASE_MISMATCH):
        verify_deformation(ly2, tri_t, deformation)


def test_trivialize_rejects_deformation_of_another_operator(ly2, tri_t):
    other = ReynoldsOperator(Matrix.from_rows([[2, 3], [0, 7]]), F(-1, 7))
    deformation = TruncatedDeformation.constant(ly2, other, 1)
    with pytest.raises(InvalidInput, match=BASE_MISMATCH):
        trivialize_first_order(ly2, tri_t, deformation)
    with pytest.raises(InvalidInput, match=BASE_MISMATCH):
        verify_deformation(ly2, tri_t, deformation)


def test_trivialize_rejects_mismatched_dimensions(ly2, tri_t, sl2):
    deformation = TruncatedDeformation.constant(sl2, identity_op_sl2(), 1)
    with pytest.raises(ShapeMismatch, match="deformation tensors do not match"):
        trivialize_first_order(ly2, tri_t, deformation)
    with pytest.raises(ShapeMismatch, match="deformation tensors do not match"):
        verify_deformation(ly2, tri_t, deformation)
    deformation = TruncatedDeformation.constant(ly2, tri_t, 1)
    with pytest.raises(DimMismatch, match="operator does not match"):
        trivialize_first_order(ly2, identity_op_sl2(), deformation)
    with pytest.raises(DimMismatch, match="operator does not match"):
        verify_deformation(ly2, identity_op_sl2(), deformation)


def differential_matrix_rly1(algebra, op, rep):
    from lyreynolds import differential_matrix

    return differential_matrix(algebra, op, rep, "rly", 1)


def test_rigidity_implication_over_catalog():
    # whenever the degree-2 cone cohomology vanishes, every valid order-1
    # perturbation sampled from the kernel trivializes
    rng = random.Random(38)
    for algebra, op, rep in random_valid_triples(rng, 8):
        betti2 = cohomology_dims(algebra, op, rep, "rly", 2).betti(2)
        if betti2 != 0:
            continue
        for _ in range(3):
            c = kernel_sample(rng, algebra, op, rep)
            deformation = deformation_from_cochain(algebra, op, c)
            if not verify_deformation(algebra, op, deformation).ok:
                continue
            iso, transported = trivialize_first_order(algebra, op, deformation)
            assert transported.F[1] == zero_binary(algebra.dim)


def test_apply_equivalence_preserves_validity_on_random_triples():
    rng = random.Random(39)
    for algebra, op, rep in random_valid_triples(rng, 4):
        c = kernel_sample(rng, algebra, op, rep)
        deformation = deformation_from_cochain(algebra, op, c)
        if not verify_deformation(algebra, op, deformation).ok:
            # kernel elements need not lift on every instance; skip honestly
            continue
        iso = FormalIsomorphism.first_order(rand_matrix(rng, algebra.dim, algebra.dim))
        moved = apply_equivalence(deformation, iso)
        assert verify_deformation(algebra, op, moved).ok


def test_deformation_coefficients_of_the_wrong_size_are_rejected(ly2, tri_t):
    f1, g1 = [list(row) for row in zero_binary(2)], [list(row) for row in zero_ternary(2)]
    zero = (F(0), F(0))
    # an oversize level was read up to dim and its extra entries dropped; an
    # undersize one raised IndexError
    for bad_f, bad_g in ((f1 + [[zero] * 2], g1), (f1[:1], g1),
                         (f1, [g1[0], g1[1][:1]]),
                         (f1, [[list(col) + [zero] for col in row] for row in g1])):
        with pytest.raises(DimMismatch, match="index level"):
            TruncatedDeformation.first_order(ly2, tri_t, bad_f, bad_g, Matrix.zero(2, 2))
