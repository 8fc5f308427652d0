"""The antisymmetry check of brackets, deformation coefficients and
degree-2 cochains against the plain scan and the dense walk in
``tests/oracles.py``, and the stored form of a tensor.

``algebra._antisymmetry_failure`` reads a tensor's nonzero cells only and
compares numerators and denominators instead of building a negated entry;
the scan compares x != -y on every basis tuple, and the walk every pair
i <= j.  All must name the same first failing tuple, for tensors frozen
from nested lists of Fractions and of plain ints.  A tensor built from its
cells and one frozen from the same nested input must be one tensor.
"""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import antisymmetry_failure_scan, antisymmetry_failure_walk
from lyreynolds.algebra import Tensor, _antisymmetry_failure, _freeze
from lyreynolds.cohomology import cochain2_from_tensors
from lyreynolds.errors import InvalidStructure

F = Fraction


def failure(tensor, dim, depth, width=None):
    """The antisymmetry witness of nested input, frozen first."""
    return _antisymmetry_failure(_freeze(tensor, dim, depth, width))


def random_entry(rng, kind):
    if kind is int:
        return rng.randint(-3, 3)
    return F(rng.randint(-3, 3), rng.randint(1, 4))


def nested(cells, dim, depth, prefix=()):
    """Nested lists from a {full index tuple: entry} dict."""
    if len(prefix) == depth + 1:
        return cells[prefix]
    return [nested(cells, dim, depth, prefix + (i,)) for i in range(dim)]


def antisymmetric_cells(rng, dim, depth, kind):
    cells = {}
    for idx in product(range(dim), repeat=depth + 1):
        i, j, *rest = idx
        if i < j:
            x = random_entry(rng, kind)
            cells[idx] = x
            cells[(j, i, *rest)] = -x
        elif i == j:
            cells[idx] = kind(0)
    return cells


def perturbed(rng, cells, dim, depth, kind):
    """Antisymmetric cells with up to three random entries changed; half of
    the time only the last entry of the last basis tuple changes, which no
    earlier tuple sees."""
    cells = dict(cells)
    if rng.random() < 0.5:
        last = (dim - 1,) * (depth + 1)
        cells[last] = cells[last] + rng.choice([1, -2, F(1, 3)] if kind is F else [1, -2])
        return cells
    for _ in range(rng.randint(0, 3)):
        idx = tuple(rng.randrange(dim) for _ in range(depth + 1))
        cells[idx] = random_entry(rng, kind)
    return cells


@pytest.mark.parametrize("kind", [F, int])
@pytest.mark.parametrize("depth", [2, 3])
def test_first_failure_matches_the_scan(depth, kind):
    rng = random.Random(f"{depth}{kind.__name__}")
    outcomes = set()
    for dim in (1, 2, 3, 4):
        for _ in range(60):
            cells = perturbed(rng, antisymmetric_cells(rng, dim, depth, kind), dim, depth, kind)
            tensor = nested(cells, dim, depth)
            expected = antisymmetry_failure_scan(tensor, dim, depth)
            assert failure(tensor, dim, depth) == expected
            outcomes.add(expected is None)
            if expected == (dim - 1,) * depth:
                outcomes.add("last")
    assert outcomes == {True, False, "last"}


@st.composite
def planted_tensors(draw):
    """(tensor, dim, depth): an antisymmetric tensor as nested lists, about
    half of its vectors zero, with up to three entries moved, some of them
    on the diagonal i = j; entries all ints or all Fractions, vectors of a
    length other than dim allowed."""
    dim, depth, width = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3])), \
        draw(st.integers(1, 3))
    if draw(st.booleans()):
        entry, nonzero = st.integers(-3, 3), st.sampled_from([1, -1, 2])
    else:
        entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
        nonzero = st.sampled_from([F(1), F(-1, 2), F(2, 3)])
    cells = {}
    for idx in product(range(dim), repeat=depth):
        i, j, *rest = idx
        if i < j:
            vec = draw(st.lists(entry, min_size=width, max_size=width)) \
                if draw(st.booleans()) else [0] * width
            cells[idx], cells[(j, i, *rest)] = vec, [-x for x in vec]
        elif i == j:
            cells[idx] = [0] * width
    index = st.integers(0, dim - 1)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(index)
        j = i if draw(st.booleans()) else draw(index)
        idx = (i, j, *(draw(index) for _ in range(depth - 2)))
        cells[idx] = list(cells[idx])
        cells[idx][draw(st.integers(0, width - 1))] += draw(nonzero)
    return nested(cells, dim, depth - 1), dim, depth, width


@settings(max_examples=400, deadline=None)
@given(planted_tensors())
def test_nonzero_cells_give_the_walk_witness(case):
    tensor, dim, depth, width = case
    assert failure(tensor, dim, depth, width) == antisymmetry_failure_walk(tensor, dim, depth)


@st.composite
def nested_inputs(draw):
    """(cells, nested, dim, depth, width): entries at every index tuple,
    about half of them zero, each an int or a Fraction, and the same
    entries as nested lists and tuples; the width of a vector may differ
    from dim, as for the parts of a cochain."""
    dim, depth, width = draw(st.integers(0, 3)), draw(st.sampled_from([2, 3])), \
        draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.builds(F, st.integers(-3, 3), st.integers(1, 4)))
    cells = {idx: draw(entry) for idx in product(*[range(dim)] * depth, range(width))}

    def build(prefix):
        if len(prefix) == depth + 1:
            return cells[prefix]
        size = width if len(prefix) == depth else dim
        node = [build(prefix + (i,)) for i in range(size)]
        return tuple(node) if draw(st.booleans()) else node

    return cells, build(()), dim, depth, width


def as_tuples(node):
    """Nested lists and tuples as nested tuples of Fractions."""
    return tuple(map(as_tuples, node)) if isinstance(node, (list, tuple)) else F(node)


@settings(max_examples=300, deadline=None)
@given(nested_inputs(), st.integers(1, 6))
def test_a_tensor_from_cells_is_the_one_frozen_from_nested_input(case, k):
    cells, data, dim, depth, width = case
    built = Tensor.of_indices({idx: F(v) for idx, v in cells.items()}, dim, depth, width)
    frozen = _freeze(data, dim, depth, width)
    view = as_tuples(data)
    assert built == frozen and not built != frozen
    assert hash(built) == hash(frozen) == hash(view)
    assert repr(built) == repr(frozen) == repr(view)
    assert built == view and view == frozen and frozen == view
    assert len(built) == len(frozen) == len(view)
    assert built.den == frozen.den
    assert built.scaled(k * built.den) == frozen.scaled(k * frozen.den)
    if dim:
        assert built[dim - 1] == frozen[dim - 1] == view[dim - 1]
    expected = antisymmetry_failure_walk(view, dim, depth)
    assert _antisymmetry_failure(built) == _antisymmetry_failure(frozen) == expected


def test_a_lone_nonzero_entry_fails_at_its_least_pair():
    # only (1, 0, 1) and the diagonal (2, 2, 0) are nonzero: the walk never
    # reads (1, 0, 1) before (0, 1, 1), and (0, 1, 1) < (2, 2, 0)
    cells = {idx: [0] for idx in product(range(3), repeat=3)}
    cells[(1, 0, 1)], cells[(2, 2, 0)] = [F(1, 2)], [3]
    tensor = nested(cells, 3, 2)
    assert antisymmetry_failure_walk(tensor, 3, 3) == (0, 1, 1)
    assert failure(tensor, 3, 3, 1) == (0, 1, 1)
    cells[(1, 0, 1)] = [0]
    assert failure(nested(cells, 3, 2), 3, 3, 1) == (2, 2, 0)


def test_numerator_or_denominator_alone_differs():
    # 1/2 against -1/3: negated numerators, different denominators; 1/2
    # against 1/2: equal denominators, numerators not negated
    for x, y in ((F(1, 2), F(-1, 3)), (F(1, 2), F(1, 2)), (F(0), F(1, 5)), (3, 3)):
        tensor = [[(0,), (x,)], [(y,), (0,)]]
        assert failure(tensor, 2, 2, 1) == (0, 1)
        assert antisymmetry_failure_scan(tensor, 2, 2) == (0, 1)
    tensor = [[(0,), (F(2, 3),)], [(F(-2, 3),), (0,)]]
    assert failure(tensor, 2, 2, 1) is None


def raw_tensors(convert):
    """An antisymmetric degree-2 cochain on a 2-dim algebra with 1-dim
    module, entries passed through ``convert``."""
    nu = [[[convert(0)], [convert(1)]], [[convert(-1)], [convert(0)]]]
    psi = [[[[convert(0)]] * 2, [[convert(2)], [convert(-3)]]],
           [[[convert(-2)], [convert(3)]], [[convert(0)]] * 2]]
    return nu, psi


@pytest.mark.parametrize("convert", [int, F, float, Decimal, lambda x: F(x, 4)])
def test_cochain2_from_tensors_takes_raw_entries(convert):
    nu, psi = raw_tensors(convert)
    c = cochain2_from_tensors(2, 1, nu, psi)
    assert c.coords == tuple(F(x) for x in (nu[0][1][0], psi[0][1][0][0], psi[0][1][1][0]))
    assert all(type(x) is F for x in c.coords)


@pytest.mark.parametrize("convert", [int, F, float, Decimal])
def test_cochain2_from_tensors_error_text(convert):
    nu, psi = raw_tensors(convert)
    nu[1][0] = [convert(1)]
    with pytest.raises(InvalidStructure, match=r"^binary part not antisymmetric at \(0,1\)$"):
        cochain2_from_tensors(2, 1, nu, psi)
    nu, psi = raw_tensors(convert)
    psi[1][0][1] = [convert(2)]
    with pytest.raises(InvalidStructure,
                       match=r"^ternary part not antisymmetric at \(0,1,1\)$"):
        cochain2_from_tensors(2, 1, nu, psi)
