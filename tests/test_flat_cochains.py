"""Cochains stored as flat coordinate tuples: the nested ``f``/``g`` views,
the coordinate arithmetic, the matrix and tensor conversions, and the cone
cochain an ``ExtensionCocycle`` builds once."""

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

import lyreynolds.extension as extension
from lyreynolds import Cochain, ExtensionCocycle, Matrix, cochain_dim
from lyreynolds.cohomology import (
    cochain2_from_tensors,
    cochain_from_matrix,
    matrix_from_cochain,
    tensors_from_cochain2,
    unflatten,
    wedge_dim,
)
from lyreynolds.errors import DegreeOutOfRange, DimMismatch, ShapeMismatch
from tests.conftest import rand_fraction, rand_matrix

F = Fraction
SHAPES = [(1, 2), (2, 0), (2, 1), (2, 2), (3, 2)]


def random_cochain(rng, degree, n, m):
    return unflatten(degree, n, m, [rand_fraction(rng) for _ in range(cochain_dim(degree, n, m))])


def leaf(view, index):
    for i in index:
        view = view[i]
    return view


@pytest.mark.parametrize("n,m", SHAPES)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_views_index_the_standard_basis(degree, n, m):
    c = random_cochain(random.Random(degree * 100 + n * 10 + m), degree, n, m)
    w = wedge_dim(n)
    f_shape = (w,) * (degree - 1) + (m,)
    g_shape = (w,) * (degree - 1) + (n, m)
    expected_f = [] if degree == 1 else list(product(*map(range, f_shape)))
    expected_g = list(product(*map(range, g_shape)))
    # row-major over each block, the f block first, the V coordinate fastest
    assert [leaf(c.f, i) for i in expected_f] + [leaf(c.g, i) for i in expected_g] \
        == list(c.coords)
    if degree == 1:
        assert c.f is None
    for view, shape in ((c.f, f_shape), (c.g, g_shape)) if degree > 1 else ((c.g, g_shape),):
        assert len(view) == shape[0]
        assert all(type(x) is tuple for x in view)


def test_cochain_stores_one_coordinate_tuple():
    assert [f.name for f in dataclasses.fields(Cochain)] == \
        ["degree", "alg_dim", "mod_dim", "coords"]
    c = Cochain(2, 2, 1, [1, F(1, 2), -3])
    assert c.coords == (F(1), F(1, 2), F(-3))
    assert all(type(x) is Fraction for x in c.coords)
    assert c.f == ((F(1),),)
    assert c.g == (((F(1, 2),), (F(-3),)),)
    with pytest.raises(AttributeError):
        c.f = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.coords = ()


def test_constructor_checks_degree_then_length():
    with pytest.raises(DegreeOutOfRange):
        Cochain(0, 2, 2, ())
    with pytest.raises(ShapeMismatch, match="wrong length"):
        Cochain(2, 2, 2, (F(0),) * 5)
    assert Cochain.zero(3, 2, 2).coords == (F(0),) * cochain_dim(3, 2, 2)


def test_arithmetic_acts_on_coordinates():
    rng = random.Random(7)
    a, b = random_cochain(rng, 2, 3, 2), random_cochain(rng, 2, 3, 2)
    assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    assert (-a).coords == tuple(-x for x in a.coords)
    assert not a.is_zero() and (a - a).is_zero()
    with pytest.raises(ShapeMismatch):
        a + random_cochain(rng, 2, 3, 1)


def test_matrix_conversion_on_a_non_square_map():
    mat = rand_matrix(random.Random(9), 3, 2)  # V of dim 3 <- L of dim 2
    c = cochain_from_matrix(mat)
    assert (c.degree, c.alg_dim, c.mod_dim) == (1, 2, 3)
    assert all(c.g[z][a] == mat[a, z] for z in range(2) for a in range(3))
    assert matrix_from_cochain(c) == mat


def antisymmetric_tensors(rng, n, m):
    nu = [[[F(0)] * m for _ in range(n)] for _ in range(n)]
    psi = [[[[F(0)] * m for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(m):
                nu[i][j][a] = rand_fraction(rng)
                nu[j][i][a] = -nu[i][j][a]
                for k in range(n):
                    psi[i][j][k][a] = rand_fraction(rng)
                    psi[j][i][k][a] = -psi[i][j][k][a]
    return nu, psi


@pytest.mark.parametrize("n,m", SHAPES)
def test_round_trip_through_tensors(n, m):
    nu, psi = antisymmetric_tensors(random.Random(n * 10 + m), n, m)
    c = cochain2_from_tensors(n, m, nu, psi)
    assert c.f == tuple(tuple(nu[i][j]) for i in range(n) for j in range(i + 1, n))
    assert c.g == tuple(tuple(tuple(psi[i][j][k]) for k in range(n))
                        for i in range(n) for j in range(i + 1, n))
    back_nu, back_psi = tensors_from_cochain2(c)
    assert back_nu == tuple(tuple(tuple(v) for v in row) for row in nu)
    assert back_psi == tuple(tuple(tuple(tuple(v) for v in col) for col in row) for row in psi)


def test_entries_of_the_wrong_length_are_rejected():
    nu, psi = antisymmetric_tensors(random.Random(3), 2, 2)
    short_nu = [row[:] for row in nu]
    short_nu[0][1] = short_nu[0][1][:1]
    with pytest.raises(ShapeMismatch):
        cochain2_from_tensors(2, 2, short_nu, psi)
    long_psi = [[col[:] for col in row] for row in psi]
    long_psi[1][1][0] = [F(0)] * 3  # a diagonal entry, which the coordinates skip
    with pytest.raises(ShapeMismatch):
        cochain2_from_tensors(2, 2, nu, long_psi)


def test_index_levels_of_the_wrong_length_are_rejected():
    nu, psi = antisymmetric_tensors(random.Random(4), 2, 2)
    zero = [F(0)] * 2
    # an oversize level was read up to dim and its extra entries dropped; an
    # undersize one raised IndexError
    wide_nu = [row + [zero] for row in nu] + [[zero] * 3]
    short_psi = [row[:] for row in psi]
    short_psi[1] = short_psi[1][:1]
    wide_psi = [[col + [zero] for col in row] for row in psi]
    for bad_nu, bad_psi in ((wide_nu, psi), ([nu[0]], psi), (nu, short_psi),
                            (nu, wide_psi)):
        with pytest.raises(DimMismatch, match="index level"):
            cochain2_from_tensors(2, 2, bad_nu, bad_psi)


def test_extension_cocycle_builds_its_cone_cochain_once(monkeypatch):
    calls = []
    original = extension.cochain2_from_tensors

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(extension, "cochain2_from_tensors", counted)
    nu, psi = antisymmetric_tensors(random.Random(5), 2, 2)
    cocycle = ExtensionCocycle(nu, psi, Matrix.from_rows([[1, 0], [2, 3]]))
    first = cocycle.to_cochain()
    assert cocycle.to_cochain() is first
    assert len(calls) == 1
    assert first.top == cochain2_from_tensors(2, 2, nu, psi)
    assert first.tail == cochain_from_matrix(cocycle.chi)
    again = ExtensionCocycle(nu, psi, Matrix.from_rows([[1, 0], [2, 3]]))
    assert again == cocycle and hash(again) == hash(cocycle)
    assert "_cochain" not in repr(cocycle)
