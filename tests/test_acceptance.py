"""Acceptance suite: one test per criterion, each printing a PASS line.

Every equality below is exact rational equality (zero tolerance); the two
stated runtime budgets are asserted with wall-clock measurements.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from lyreynolds import (
    ExtensionCocycle,
    FormalIsomorphism,
    Matrix,
    ReynoldsOperator,
    TruncatedDeformation,
    adjoint_rep,
    apply_equivalence,
    build_extension,
    cochain_dim,
    cohomology_dims,
    d_rly,
    descendant_algebra,
    differential_matrix,
    extensions_equivalent,
    extract_cocycle,
    induced_rep,
    infinitesimal,
    is_cocycle,
    rly_dim,
    trivialize_first_order,
    two_dim_example,
    verify_deformation,
    verify_ly_axioms,
    verify_reynolds,
)
from lyreynolds.algebra import zero_binary, zero_ternary
from lyreynolds.cohomology import (
    RlyCochain,
    cochain_from_matrix,
    cocycle_space,
    matrix_from_cochain,
    phi_matrix,
    tensors_from_cochain2,
    unflatten_rly,
)
from lyreynolds.errors import NotCocycle
from lyreynolds.extension import Section, assemble_extension, class_representatives
from lyreynolds.linalg import inverse, rank
from lyreynolds.representation import Representation
from tests.conftest import identity_op, rand_fraction, rand_matrix, random_valid_triples

F = Fraction
_SUITE_START = time.monotonic()


@pytest.fixture(scope="module")
def canonical():
    algebra = two_dim_example()
    op = ReynoldsOperator(Matrix.from_rows([[2, 3], [0, 5]]), F(-1, 5))
    return algebra, op, adjoint_rep(algebra, op)


def _passed(cid: str, text: str):
    print(f"ACCEPTANCE {cid}: PASS - {text}")


def test_criterion_1_worked_examples(sl2, leibniz3):
    start = time.monotonic()
    algebra = two_dim_example()
    assert verify_ly_axioms(algebra).ok
    family = ReynoldsOperator(Matrix.from_rows([[2, 3], [0, 5]]), F(-1, 5))
    assert verify_reynolds(algebra, family).ok
    for sample in (algebra, sl2, leibniz3):
        assert verify_reynolds(sample, identity_op(sample.dim)).ok
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed("C1", f"worked examples verify exactly in {elapsed:.3f}s")


def test_criterion_2_complexes_square_to_zero(canonical):
    start = time.monotonic()
    algebra, op, rep = canonical
    for which in ("ly", "ro", "rly"):
        for p in (1, 2):
            lo = differential_matrix(algebra, op, rep, which, p)
            hi = differential_matrix(algebra, op, rep, which, p + 1)
            assert (hi @ lo).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed("C2", f"d o d = 0 at p = 1,2 in all three complexes ({elapsed:.3f}s)")


def test_criterion_3_chain_map(canonical):
    algebra, op, rep = canonical
    rng = random.Random(100)
    triples = [(algebra, op, rep)] + random_valid_triples(rng, 5)
    for a, t, r in triples:
        assert a.dim <= 3
        for p in (1, 2):
            lhs = phi_matrix(a, t, r, p + 1) @ differential_matrix(a, t, r, "ly", p)
            rhs = differential_matrix(a, t, r, "ro", p) @ phi_matrix(a, t, r, p)
            assert lhs == rhs
    _passed("C3", "comparison map commutes with the differentials on the "
                  "canonical instance and 5 random triples")


def test_criterion_4_dimension_bookkeeping(canonical):
    algebra, op, rep = canonical
    n, m = algebra.dim, rep.module_dim
    for p in (2, 3):
        assert rly_dim(p, n, m) == cochain_dim(p, n, m) + cochain_dim(p - 1, n, m)
    report = cohomology_dims(algebra, op, rep, "rly", 3)
    assert [row.dim_cochain for row in report.rows] == [4, 10, 12]
    _passed("C4", "cone dimensions split as top + shifted tail; "
                  "canonical dims are 4, 10, 12")


def test_criterion_5_betti_stability(canonical):
    algebra, op, rep = canonical
    rng = random.Random(101)
    base = {which: cohomology_dims(algebra, op, rep, which, 3)
            for which in ("ly", "ro", "rly")}
    conjugations = 0
    while conjugations < 3:
        q = rand_matrix(rng, 2, 2)
        if rank(q) != 2:
            continue
        conjugations += 1
        qi = inverse(q)
        moved = Representation(
            rep.algebra_dim, rep.module_dim,
            tuple(q @ r @ qi for r in rep.rho),
            tuple(tuple(q @ t @ qi for t in row) for row in rep.theta),
            q @ rep.module_op @ qi)
        for which in ("ly", "ro", "rly"):
            got = cohomology_dims(algebra, op, moved, which, 3)
            assert got == base[which]
    _passed("C5", "betti numbers identical under 3 random module basis changes")


def _kernel_sample(rng, algebra, op, rep):
    ker = cocycle_space(algebra, op, rep, "rly", 2)
    width = len(ker.vectors[0])
    coeffs = [rand_fraction(rng) for _ in ker.vectors]
    flat = [sum((c * v[i] for c, v in zip(coeffs, ker.vectors)), F(0))
            for i in range(width)]
    return unflatten_rly(2, algebra.dim, rep.module_dim, flat)


def test_criterion_6_deformation_propositions(canonical):
    algebra, op, rep = canonical
    rng = random.Random(102)

    for _ in range(10):
        cochain = _kernel_sample(rng, algebra, op, rep)
        nu, psi = tensors_from_cochain2(cochain.top)
        deformation = TruncatedDeformation.first_order(
            algebra, op, nu, psi, matrix_from_cochain(cochain.tail))
        assert verify_deformation(algebra, op, deformation).ok
        assert is_cocycle(algebra, op, rep, "rly", infinitesimal(deformation))

    for _ in range(10):
        phi1 = rand_matrix(rng, 2, 2)
        moved = apply_equivalence(
            TruncatedDeformation.constant(algebra, op, 1),
            FormalIsomorphism.first_order(phi1.scale(-1)))
        target = d_rly(algebra, op, rep,
                       RlyCochain(cochain_from_matrix(phi1), None))
        inf = infinitesimal(moved)
        assert (inf.top - target.top).is_zero()
        assert (inf.tail - target.tail).is_zero()
        _iso, transported = trivialize_first_order(algebra, op, moved)
        assert transported.F[1] == zero_binary(2)
        assert transported.G[1] == zero_ternary(2)
        assert transported.Tt[1] == Matrix.zero(2, 2)
    _passed("C6", "10 kernel lifts verify with cocycle infinitesimals; 10 "
                  "transported constants trivialize to zero order-1 terms")


def test_criterion_7_extension_theorem(canonical):
    algebra, op, rep = canonical
    rng = random.Random(103)
    n, m = algebra.dim, rep.module_dim

    for _ in range(10):
        cochain = _kernel_sample(rng, algebra, op, rep)
        cocycle = ExtensionCocycle.from_cochain(cochain)
        ext = build_extension(algebra, op, rep, cocycle)
        back = extract_cocycle(ext)
        assert (back.nu, back.psi, back.chi) == (cocycle.nu, cocycle.psi, cocycle.chi)

    base_ext = build_extension(
        algebra, op, rep,
        ExtensionCocycle.from_cochain(_kernel_sample(rng, algebra, op, rep)))
    canonical_cocycle = extract_cocycle(base_ext).to_cochain()
    for _ in range(10):
        iota = rand_matrix(rng, m, n)
        section = Section(Matrix.from_rows([[1, 0], [0, 1]] + iota.to_rows()))
        shifted = extract_cocycle(base_ext, section).to_cochain()
        expected = d_rly(algebra, op, rep,
                         RlyCochain(cochain_from_matrix(iota), None))
        diff = shifted - canonical_cocycle
        assert (diff.top - expected.top).is_zero()
        assert (diff.tail - expected.tail).is_zero()

    rejected = 0
    while rejected < 10:
        flat = [rand_fraction(rng) for _ in range(rly_dim(2, n, m))]
        cochain = unflatten_rly(2, n, m, flat)
        if is_cocycle(algebra, op, rep, "rly", cochain):
            continue
        rejected += 1
        cocycle = ExtensionCocycle.from_cochain(cochain)
        with pytest.raises(NotCocycle):
            build_extension(algebra, op, rep, cocycle)
        total, total_op = assemble_extension(algebra, op, rep, cocycle)
        algebra_report = verify_ly_axioms(total)
        operator_report = verify_reynolds(total, total_op)
        assert not (algebra_report.ok and operator_report.ok)
        failures = algebra_report.failures() + operator_report.failures()
        assert failures and failures[0].witness is not None

    # classes agree exactly when a verified equivalence exists
    chosen = class_representatives(algebra, op, rep)
    assert len(chosen) == 2
    e_one = build_extension(algebra, op, rep, ExtensionCocycle.from_cochain(
        unflatten_rly(2, n, m, chosen[0])))
    e_two = build_extension(algebra, op, rep, ExtensionCocycle.from_cochain(
        unflatten_rly(2, n, m, chosen[1])))
    shift = d_rly(algebra, op, rep,
                  RlyCochain(cochain_from_matrix(rand_matrix(rng, m, n)), None))
    e_same_class = build_extension(algebra, op, rep, ExtensionCocycle.from_cochain(
        unflatten_rly(2, n, m, chosen[0]) + shift))
    assert extensions_equivalent(e_one, e_same_class) is not None
    assert extensions_equivalent(e_one, e_two) is None
    _passed("C7", "round trips, section shifts, 10 rejections with witnesses, "
                  "and class-exact equivalences all hold")


def test_criterion_8_degenerate_weights():
    algebra = two_dim_example()

    ident = identity_op(2)
    assert verify_reynolds(algebra, ident).ok
    descendant = descendant_algebra(algebra, ident)
    assert descendant.binary == algebra.binary
    assert descendant.ternary == algebra.ternary
    rep = adjoint_rep(algebra, ident)
    assert induced_rep(algebra, ident, rep) == rep
    for which in ("ly", "ro", "rly"):
        report = cohomology_dims(algebra, ident, rep, which, 3)
        assert all(row.betti >= 0 for row in report.rows)

    rota_baxter = ReynoldsOperator(Matrix.from_rows([[0, 1], [0, 0]]), F(0))
    assert verify_reynolds(algebra, rota_baxter).ok
    descendant = descendant_algebra(algebra, rota_baxter)
    assert verify_ly_axioms(descendant).ok
    rb_rep = adjoint_rep(algebra, rota_baxter)
    induced = induced_rep(algebra, rota_baxter, rb_rep)
    assert induced is not None
    for which in ("ly", "ro", "rly"):
        report = cohomology_dims(algebra, rota_baxter, rb_rep, which, 3)
        assert all(row.betti >= 0 for row in report.rows)
    _passed("C8", "weight 0 and the identity at weight -1 run the full "
                  "pipeline; the identity descendant is the algebra itself")


def test_suite_runtime_budget():
    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 60.0
    _passed("C-time", f"acceptance suite finished in {elapsed:.1f}s")
