import random
from fractions import Fraction

import pytest

from lyreynolds import (
    Cochain,
    Matrix,
    ReynoldsOperator,
    RlyCochain,
    abelian,
    adjoint_rep,
    cochain_dim,
    cohomologous,
    cohomology_dims,
    coboundary_preimage,
    d_rly,
    delta,
    descendant_algebra,
    differential_matrix,
    induced_rep,
    is_coboundary,
    is_cocycle,
    partial,
    phi,
    rly_dim,
    zero_rep,
)
from lyreynolds.cohomology import (
    cochain_from_matrix,
    flatten,
    flatten_rly,
    matrix_from_cochain,
    phi_matrix,
    unflatten,
    unflatten_rly,
    wedge_pairs,
)
from lyreynolds.errors import DegreeOutOfRange, InvalidInput, ShapeMismatch
from lyreynolds.linalg import inverse, rank
from lyreynolds.representation import Representation, d_table
from tests.conftest import identity_op, rand_fraction, rand_matrix, random_valid_triples
from tests.oracles import cocycle_space

F = Fraction


@pytest.fixture(scope="module")
def setup(ly2, tri_t):
    return ly2, tri_t, adjoint_rep(ly2, tri_t)


def rand_cochain(rng, degree, n, m):
    return unflatten(degree, n, m,
                     [rand_fraction(rng) for _ in range(cochain_dim(degree, n, m))])


def rand_rly(rng, degree, n, m):
    return unflatten_rly(degree, n, m,
                         [rand_fraction(rng) for _ in range(rly_dim(degree, n, m))])


# ---------------------------------------------------------------------------
# cochain plumbing

def test_cochain_dims_canonical():
    assert [cochain_dim(p, 2, 2) for p in (1, 2, 3)] == [4, 6, 6]
    assert [rly_dim(p, 2, 2) for p in (1, 2, 3)] == [4, 10, 12]


def test_rly_dim_identity_all_degrees():
    for n, m in ((2, 2), (3, 1), (3, 3)):
        for p in (2, 3):
            assert rly_dim(p, n, m) == cochain_dim(p, n, m) + cochain_dim(p - 1, n, m)


def test_flatten_round_trip():
    rng = random.Random(0)
    for degree in (1, 2, 3):
        c = rand_cochain(rng, degree, 2, 2)
        assert unflatten(degree, 2, 2, flatten(c)) == c
    c = rand_rly(rng, 2, 2, 2)
    assert unflatten_rly(2, 2, 2, flatten_rly(c)) == c


def test_cochain_arithmetic():
    rng = random.Random(1)
    a = rand_cochain(rng, 2, 2, 2)
    b = rand_cochain(rng, 2, 2, 2)
    assert flatten(a + b) == tuple(x + y for x, y in zip(flatten(a), flatten(b)))
    assert flatten(a.scale(F(3, 2))) == tuple(F(3, 2) * x for x in flatten(a))
    assert (a - a).is_zero()
    h = rand_cochain(rng, 1, 2, 2)
    assert flatten(h + h) == tuple(2 * x for x in flatten(h))


def test_matrix_cochain_round_trip():
    mat = Matrix.from_rows([[1, 2], [3, 4]])
    assert matrix_from_cochain(cochain_from_matrix(mat)) == mat


def test_cochain_shape_validation():
    with pytest.raises(DegreeOutOfRange):
        Cochain.zero(0, 2, 2)
    with pytest.raises(ShapeMismatch):
        Cochain(1, 2, 2, (F(0),) * 5)
    with pytest.raises(ShapeMismatch):
        unflatten(2, 2, 2, [0] * 5)


# ---------------------------------------------------------------------------
# the coboundary against an independent transcription of the formulas

def _wedge_eval_f(c, n, u, v):
    # evaluate the degree-2 f part on a general wedge u ^ v
    out = [F(0)] * c.mod_dim
    for k, (i, j) in enumerate(wedge_pairs(n)):
        coef = u[i] * v[j] - u[j] * v[i]
        if coef:
            out = [o + coef * x for o, x in zip(out, c.f[k])]
    return tuple(out)


def _wedge_eval_g(c, n, u, v, zvec):
    out = [F(0)] * c.mod_dim
    for k, (i, j) in enumerate(wedge_pairs(n)):
        coef = u[i] * v[j] - u[j] * v[i]
        if not coef:
            continue
        for z, cz in enumerate(zvec):
            if cz:
                out = [o + coef * cz * x for o, x in zip(out, c.g[k][z])]
    return tuple(out)


def test_delta_degree1_values(setup):
    algebra, op, rep = setup
    # h = identity map on L: the two output components at the wedge e1 ^ e2
    # are rho(e1)e2 - rho(e2)e1 - [e1,e2] = e1 and, against z = e2,
    # D(e1,e2)e2 + theta(e2,e2)e1 - theta(e1,e2)e2 - {e1,e2,e2} = 2 e1
    ident = cochain_from_matrix(Matrix.identity(2))
    out = delta(algebra, rep, ident)
    assert out.degree == 2
    assert out.f[0] == (F(1), F(0))
    assert out.g[0][1] == (F(2), F(0))


def test_delta_degree1_matches_independent_oracle(setup):
    algebra, op, rep = setup
    n = algebra.dim
    dd = d_table(algebra, rep)
    rng = random.Random(3)
    for _ in range(5):
        mat = rand_matrix(rng, 2, 2)
        h = cochain_from_matrix(mat)
        out = delta(algebra, rep, h)
        for k, (i, j) in enumerate(wedge_pairs(n)):
            expect_f = tuple(
                a - b - c for a, b, c in zip(
                    rep.rho[i].apply(mat.column(j)),
                    rep.rho[j].apply(mat.column(i)),
                    mat.apply(algebra.binary[i][j])))
            assert out.f[k] == expect_f
            for z in range(n):
                expect_g = tuple(
                    a + b - c - d for a, b, c, d in zip(
                        dd[i][j].apply(mat.column(z)),
                        rep.theta[j][z].apply(mat.column(i)),
                        rep.theta[i][z].apply(mat.column(j)),
                        mat.apply(algebra.ternary[i][j][z])))
                assert out.g[k][z] == expect_g


def test_delta_degree2_matches_independent_oracle(setup):
    algebra, op, rep = setup
    n = algebra.dim
    dd = d_table(algebra, rep)
    pairs = wedge_pairs(n)
    rng = random.Random(4)
    unit = algebra.basis

    def oracle(c):
        f_out = {}
        g_out = {}
        for k1, (x1, y1) in enumerate(pairs):
            for k2, (x2, y2) in enumerate(pairs):
                s_u = algebra.ternary[x1][y1][x2]
                s_v = algebra.ternary[x1][y1][y2]
                first = rep.rho[x2].apply(c.g[k1][y2])
                first = tuple(a - b for a, b in zip(
                    first, rep.rho[y2].apply(c.g[k1][x2])))
                gb = [F(0)] * n
                for t, coef in enumerate(algebra.binary[x2][y2]):
                    gb = [a + coef * b for a, b in zip(gb, c.g[k1][t])]
                first = tuple(-(a - b) for a, b in zip(first, gb))
                term_d = dd[x1][y1].apply(c.f[k2])
                subst = tuple(a + b for a, b in zip(
                    _wedge_eval_f(c, n, s_u, unit(y2)),
                    _wedge_eval_f(c, n, unit(x2), s_v)))
                f_out[(k1, k2)] = tuple(
                    a + b - s for a, b, s in zip(first, term_d, subst))
                for z in range(n):
                    lead = tuple(a - b for a, b in zip(
                        rep.theta[y2][z].apply(c.g[k1][x2]),
                        rep.theta[x2][z].apply(c.g[k1][y2])))
                    lead = tuple(-a for a in lead)
                    dsum = tuple(a - b for a, b in zip(
                        dd[x1][y1].apply(c.g[k2][z]),
                        dd[x2][y2].apply(c.g[k1][z])))
                    gsub = tuple(a + b for a, b in zip(
                        _wedge_eval_g(c, n, s_u, unit(y2), unit(z)),
                        _wedge_eval_g(c, n, unit(x2), s_v, unit(z))))
                    tail = tuple(a - b for a, b in zip(
                        _wedge_eval_g(c, n, unit(x2), unit(y2),
                                      algebra.ternary[x1][y1][z]),
                        _wedge_eval_g(c, n, unit(x1), unit(y1),
                                      algebra.ternary[x2][y2][z])))
                    g_out[(k1, k2, z)] = tuple(
                        a + b - s - t for a, b, s, t in zip(lead, dsum, gsub, tail))
        return f_out, g_out

    for _ in range(4):
        c = rand_cochain(rng, 2, n, rep.module_dim)
        out = delta(algebra, rep, c)
        f_exp, g_exp = oracle(c)
        for k1 in range(len(pairs)):
            for k2 in range(len(pairs)):
                assert out.f[k1][k2] == f_exp[(k1, k2)]
                for z in range(n):
                    assert out.g[k1][k2][z] == g_exp[(k1, k2, z)]


def test_delta_zero_and_linearity(setup):
    algebra, op, rep = setup
    rng = random.Random(5)
    for degree in (1, 2):
        zero = Cochain.zero(degree, 2, 2)
        assert delta(algebra, rep, zero).is_zero()
        a = rand_cochain(rng, degree, 2, 2)
        b = rand_cochain(rng, degree, 2, 2)
        c = rand_fraction(rng)
        lhs = delta(algebra, rep, a.scale(c) + b)
        rhs = delta(algebra, rep, a).scale(c) + delta(algebra, rep, b)
        assert lhs == rhs


def test_delta_shape_mismatch(setup):
    algebra, op, rep = setup
    with pytest.raises(ShapeMismatch):
        delta(algebra, rep, Cochain.zero(1, 3, 2))


def test_delta_requires_valid_rep(ly2):
    ad = adjoint_rep(ly2)
    theta = list(list(r) for r in ad.theta)
    theta[0][1] = Matrix.zero(2, 2)
    broken = Representation(2, 2, ad.rho, tuple(map(tuple, theta)), None)
    with pytest.raises(InvalidInput):
        delta(ly2, broken, Cochain.zero(1, 2, 2))


def coboundary(algebra, op, rep, which, c):
    """The coboundary of the complex ``which`` called directly: delta,
    partial or d_rly, and for ly the comparison map phi first, which takes
    the same cochains."""
    if which == "ly":
        phi(algebra, op, rep, c)
        return delta(algebra, rep, c)
    if which == "ro":
        return partial(algebra, op, rep, c)
    return d_rly(algebra, op, rep, c)


@pytest.mark.parametrize("fn", [is_cocycle, is_coboundary, coboundary_preimage, cohomologous,
                                coboundary])
@pytest.mark.parametrize("which", ["ly", "ro", "rly"])
def test_a_cochain_of_the_other_kind_is_a_shape_mismatch(setup, which, fn):
    # the rly complex takes cone cochains, ly and ro plain ones; cohomologous
    # checks both of its cochains, in either place
    algebra, op, rep = setup
    right, wrong = Cochain.zero(2, 2, 2), RlyCochain.zero(2, 2, 2)
    if which == "rly":
        right, wrong = wrong, right
    expected = f"^the {which} complex takes a {type(right).__name__}, not a {type(wrong).__name__}$"
    for args in ([(wrong, right), (right, wrong)] if fn is cohomologous else [(wrong,)]):
        with pytest.raises(ShapeMismatch, match=expected):
            fn(algebra, op, rep, which, *args)
    # the zero cochain of the right kind is a cocycle and a coboundary
    args = (right, right) if fn is cohomologous else (right,)
    assert fn(algebra, op, rep, which, *args) not in (False, None)


def test_square_zero_on_random_cochains(setup):
    algebra, op, rep = setup
    rng = random.Random(6)
    for degree in (1, 2):
        c = rand_cochain(rng, degree, 2, 2)
        assert delta(algebra, rep, delta(algebra, rep, c)).is_zero()
        assert partial(algebra, op, rep, partial(algebra, op, rep, c)).is_zero()
        r = rand_rly(rng, degree, 2, 2)
        assert d_rly(algebra, op, rep, d_rly(algebra, op, rep, r)).is_zero()


def test_differential_matrices_square_to_zero(setup):
    algebra, op, rep = setup
    for which in ("ly", "ro", "rly"):
        for p in (1, 2):
            lo = differential_matrix(algebra, op, rep, which, p)
            hi = differential_matrix(algebra, op, rep, which, p + 1)
            assert (hi @ lo).is_zero()


def test_differential_matrix_shapes(setup):
    algebra, op, rep = setup
    d1 = differential_matrix(algebra, op, rep, "ly", 1)
    assert (d1.rows, d1.cols) == (6, 4)
    d2 = differential_matrix(algebra, op, rep, "rly", 2)
    assert (d2.rows, d2.cols) == (12, 10)
    with pytest.raises(DegreeOutOfRange):
        differential_matrix(algebra, op, rep, "ly", 0)
    with pytest.raises(InvalidInput):
        differential_matrix(algebra, op, rep, "nope", 1)


def test_partial_is_delta_of_descendant_with_induced(setup):
    algebra, op, rep = setup
    rng = random.Random(7)
    c = rand_cochain(rng, 2, 2, 2)
    via_parts = delta(descendant_algebra(algebra, op),
                      induced_rep(algebra, op, rep), c)
    assert partial(algebra, op, rep, c) == via_parts


def test_partial_equals_delta_for_identity_operator(ly2):
    op = identity_op(2)
    rep = adjoint_rep(ly2, op)
    rng = random.Random(8)
    for degree in (1, 2):
        c = rand_cochain(rng, degree, 2, 2)
        assert partial(ly2, op, rep, c) == delta(ly2, rep, c)


# ---------------------------------------------------------------------------
# the comparison map

def test_phi_identity_operator_vanishes(ly2):
    op = identity_op(2)
    rep = adjoint_rep(ly2, op)
    for p in (1, 2, 3):
        assert phi_matrix(ly2, op, rep, p).is_zero()


def test_phi_zero_cochain(setup):
    algebra, op, rep = setup
    assert phi(algebra, op, rep, Cochain.zero(2, 2, 2)).is_zero()


def test_phi_kills_equivariant_maps(setup):
    algebra, op, rep = setup
    # h = T itself satisfies h o T = T_V o h
    assert phi(algebra, op, rep, cochain_from_matrix(op.matrix)).is_zero()


def test_phi_degree2_matches_brute_force(setup):
    algebra, op, rep = setup
    n = algebra.dim
    w = op.weight
    tv = rep.module_op
    t_img = [op(algebra.basis(i)) for i in range(n)]
    rng = random.Random(9)
    unit = algebra.basis
    for _ in range(4):
        c = rand_cochain(rng, 2, n, rep.module_dim)
        out = phi(algebra, op, rep, c)
        for k, (x, y) in enumerate(wedge_pairs(n)):
            all_t = _wedge_eval_f(c, n, t_img[x], t_img[y])
            inner = tuple(
                a + b + w * s for a, b, s in zip(
                    _wedge_eval_f(c, n, unit(x), t_img[y]),
                    _wedge_eval_f(c, n, t_img[x], unit(y)),
                    all_t))
            expect = tuple(a - b for a, b in zip(all_t, tv.apply(inner)))
            assert out.f[k] == expect
            for z in range(n):
                all_tg = _wedge_eval_g(c, n, t_img[x], t_img[y], t_img[z])
                inner_g = tuple(
                    a + b + s + 2 * w * t for a, b, s, t in zip(
                        _wedge_eval_g(c, n, unit(x), t_img[y], t_img[z]),
                        _wedge_eval_g(c, n, t_img[x], unit(y), t_img[z]),
                        _wedge_eval_g(c, n, t_img[x], t_img[y], unit(z)),
                        all_tg))
                expect_g = tuple(a - b for a, b in zip(all_tg, tv.apply(inner_g)))
                assert out.g[k][z] == expect_g


def test_chain_map_square(setup):
    algebra, op, rep = setup
    for p in (1, 2):
        lhs = phi_matrix(algebra, op, rep, p + 1) \
            @ differential_matrix(algebra, op, rep, "ly", p)
        rhs = differential_matrix(algebra, op, rep, "ro", p) \
            @ phi_matrix(algebra, op, rep, p)
        assert lhs == rhs


def test_chain_map_square_random_triples():
    rng = random.Random(10)
    for algebra, op, rep in random_valid_triples(rng, 5):
        for p in (1, 2):
            lhs = phi_matrix(algebra, op, rep, p + 1) \
                @ differential_matrix(algebra, op, rep, "ly", p)
            rhs = differential_matrix(algebra, op, rep, "ro", p) \
                @ phi_matrix(algebra, op, rep, p)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# cohomology dimensions

def test_betti_zero_structure_is_full_dimension():
    algebra = abelian(2)
    op = ReynoldsOperator(Matrix.zero(2, 2), F(1))
    rep = zero_rep(2, 2, Matrix.zero(2, 2))
    report = cohomology_dims(algebra, op, rep, "ly", 3)
    for row in report.rows:
        assert row.betti == row.dim_cochain == cochain_dim(row.degree, 2, 2)


def test_betti_canonical_instance(setup):
    algebra, op, rep = setup
    assert [r.betti for r in cohomology_dims(algebra, op, rep, "ly", 3).rows] \
        == [2, 1, 1]
    assert [r.betti for r in cohomology_dims(algebra, op, rep, "ro", 3).rows] \
        == [2, 1, 1]
    assert [r.betti for r in cohomology_dims(algebra, op, rep, "rly", 3).rows] \
        == [1, 2, 1]


def test_betti_rank_nullity_cross_check(setup):
    algebra, op, rep = setup
    for which in ("ly", "ro", "rly"):
        report = cohomology_dims(algebra, op, rep, which, 3)
        prev_rank = 0
        for row in report.rows:
            out = differential_matrix(algebra, op, rep, which, row.degree)
            assert row.dim_cochain == out.cols
            assert row.dim_kernel == out.cols - rank(out)
            assert row.dim_image_incoming == prev_rank
            assert row.betti == row.dim_kernel - row.dim_image_incoming
            assert row.betti >= 0
            prev_rank = rank(out)


def conjugate_rep(rep, q):
    qi = inverse(q)
    return Representation(
        rep.algebra_dim, rep.module_dim,
        tuple(q @ r @ qi for r in rep.rho),
        tuple(tuple(q @ t @ qi for t in row) for row in rep.theta),
        None if rep.module_op is None else q @ rep.module_op @ qi)


def test_betti_invariant_under_module_basis_change(setup):
    algebra, op, rep = setup
    rng = random.Random(11)
    base = {which: [r.betti for r in cohomology_dims(algebra, op, rep, which, 3).rows]
            for which in ("ly", "ro", "rly")}
    found = 0
    while found < 3:
        q = rand_matrix(rng, 2, 2)
        if rank(q) != 2:
            continue
        found += 1
        moved = conjugate_rep(rep, q)
        for which in ("ly", "ro", "rly"):
            got = [r.betti for r in cohomology_dims(algebra, op, moved, which, 3).rows]
            assert got == base[which]


# ---------------------------------------------------------------------------
# cocycles and coboundaries

def test_zero_cochain_is_cocycle_and_coboundary(setup):
    algebra, op, rep = setup
    zero2 = Cochain.zero(2, 2, 2)
    assert is_cocycle(algebra, op, rep, "ly", zero2)
    assert is_coboundary(algebra, op, rep, "ly", zero2)
    zero1 = Cochain.zero(1, 2, 2)
    assert is_coboundary(algebra, op, rep, "ly", zero1)
    rng = random.Random(12)
    nonzero = rand_cochain(rng, 1, 2, 2)
    assert not is_coboundary(algebra, op, rep, "ly", nonzero)


def test_image_of_differential_bounds(setup):
    algebra, op, rep = setup
    rng = random.Random(13)
    h = rand_cochain(rng, 1, 2, 2)
    image = delta(algebra, rep, h)
    assert is_cocycle(algebra, op, rep, "ly", image)
    assert is_coboundary(algebra, op, rep, "ly", image)
    pre = coboundary_preimage(algebra, op, rep, "ly", image)
    assert delta(algebra, rep, pre) == image


def test_kernel_vector_outside_image(setup):
    algebra, op, rep = setup
    # rly betti(2) = 2 > 0, so some kernel vector does not bound
    ker = cocycle_space(algebra, op, rep, "rly", 2)
    d1 = differential_matrix(algebra, op, rep, "rly", 1)
    image_rank = rank(d1)
    hit = None
    for vec in ker.vectors:
        cols = [d1.column(j) for j in range(d1.cols)] + [list(vec)]
        if rank(Matrix.from_columns(cols, d1.rows)) > image_rank:
            hit = vec
            break
    assert hit is not None
    c = unflatten_rly(2, 2, 2, hit)
    assert is_cocycle(algebra, op, rep, "rly", c)
    assert not is_coboundary(algebra, op, rep, "rly", c)


def test_cohomologous(setup):
    algebra, op, rep = setup
    rng = random.Random(14)
    h = rand_cochain(rng, 1, 2, 2)
    ker = cocycle_space(algebra, op, rep, "ly", 2)
    base = unflatten(2, 2, 2, ker.vectors[0])
    shifted = base + delta(algebra, rep, h)
    assert cohomologous(algebra, op, rep, "ly", base, shifted)
    assert cohomologous(algebra, op, rep, "ly", shifted, base)


def test_phi_and_cone_linearity(setup):
    algebra, op, rep = setup
    rng = random.Random(15)
    c = rand_fraction(rng)
    a2 = rand_cochain(rng, 2, 2, 2)
    b2 = rand_cochain(rng, 2, 2, 2)
    assert phi(algebra, op, rep, a2.scale(c) + b2) \
        == phi(algebra, op, rep, a2).scale(c) + phi(algebra, op, rep, b2)
    ra = rand_rly(rng, 2, 2, 2)
    rb = rand_rly(rng, 2, 2, 2)
    lhs = d_rly(algebra, op, rep, ra.scale(c) + rb)
    rhs = d_rly(algebra, op, rep, ra).scale(c) + d_rly(algebra, op, rep, rb)
    assert (lhs - rhs).is_zero()
