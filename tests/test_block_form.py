"""Extensions in block form: the sparse assembly and the section-basis
readers against the case-split assembler and the solve-based readers of
``tests/oracles.py``, the ideal check of the constructor, and the shared
entries of the sparse tensor builders."""

import random
from fractions import Fraction
from itertools import product

import pytest

import lyreynolds.linalg as linalg
from lyreynolds import (
    AbelianExtension,
    ExtensionCocycle,
    LyAlgebra,
    Matrix,
    ReynoldsOperator,
    Section,
    abelian,
    adjoint_rep,
    bracket2,
    bracket3,
    build_extension,
    extract_cocycle,
    extract_rep,
)
from lyreynolds.algebra import _freeze, binary_from_sparse, ternary_from_sparse
from lyreynolds.cohomology import (
    RlyCochain,
    cochain_from_matrix,
    d_rly,
    is_cocycle,
    rly_dim,
    unflatten_rly,
)
from lyreynolds.errors import InvalidInput
from lyreynolds.extension import (
    _canonical_arrows,
    _section_basis,
    assemble_extension,
    base_data,
)
from lyreynolds.linalg import _ZERO, inverse, rank
from tests.conftest import rand_fraction, rand_matrix, random_valid_triples
from tests.oracles import (
    assemble_extension_by_cases,
    base_data_by_solves,
    extract_cocycle_by_solves,
    extract_rep_by_solves,
)
from tests.test_extension import kernel_cocycles

F = Fraction


def test_freeze_keeps_the_fraction_objects_it_is_given():
    # nonzero Fractions are stored as they are; zero entries are no cells,
    # and the view reads them as the one shared zero
    data = [[(F(1, 2), F(3)), (F(0), F(-1))], [(F(5), F(0)), (F(2, 3), 1)]]
    frozen = _freeze(data, 2, 2)
    for i, j, k in product(range(2), repeat=3):
        if (i, j, k) != (1, 1, 1):
            x = data[i][j][k]
            assert frozen[i][j][k] is (x if x else _ZERO)
    assert type(frozen[1][1][1]) is Fraction and frozen[1][1][1] == 1
    assert set(frozen.cells) == {0, 1, 3, 4, 6, 7}


def test_sparse_builders_share_one_zero():
    binary = binary_from_sparse(2, {(0, 1, 0): 1})
    ternary = ternary_from_sparse(2, {(0, 1, 1, 0): 1})
    algebra = LyAlgebra(2, binary, ternary)
    assert binary[0][0][0] is _ZERO and ternary[1][1][0][1] is _ZERO
    assert algebra.binary[0][1][1] is _ZERO and algebra.ternary[0][1][1][1] is _ZERO


def _one_dim_module(total: LyAlgebra) -> AbelianExtension:
    """total with V spanned by its last basis vector and project dropping it."""
    big = total.dim
    return AbelianExtension(
        total, ReynoldsOperator(Matrix.identity(big), F(-1)),
        Matrix.from_rows([[int(i == big - 1)] for i in range(big)]),
        Matrix.from_rows([[int(i == j) for j in range(big)] for i in range(big - 1)]))


@pytest.mark.parametrize("total", [
    # [x, v]: [e1, e2] = e1 with zero ternary bracket, V = span(e2)
    LyAlgebra(2, binary_from_sparse(2, {(0, 1, 0): 1}), ternary_from_sparse(2, {})),
    # {x, y, v} = e1
    LyAlgebra(3, binary_from_sparse(3, {}), ternary_from_sparse(3, {(0, 1, 2, 0): 1})),
    # {v, x, y} = e1
    LyAlgebra(3, binary_from_sparse(3, {}), ternary_from_sparse(3, {(2, 0, 1, 0): 1})),
], ids=["binary", "ternary-last", "ternary-first"])
def test_module_image_that_is_not_an_ideal_is_rejected(total):
    with pytest.raises(InvalidInput, match="^module image is not an ideal$"):
        _one_dim_module(total)


def test_block_form_is_read_without_a_change_of_basis(ly2, tri_t, monkeypatch):
    import lyreynolds.extension as extension

    ext = build_extension(ly2, tri_t, adjoint_rep(ly2, tri_t), ExtensionCocycle.zero(2, 2))

    def no_inverse(m):
        raise AssertionError("block form needs no change of basis")

    monkeypatch.setattr(extension, "inverse", no_inverse)
    binary, ternary, op = _section_basis(ext, ext.canonical_section())
    assert binary is ext.total.binary and ternary is ext.total.ternary
    assert op is ext.total_op.matrix
    extract_cocycle(ext)


def scrambled_parts(rng, total, total_op, inject, project) -> tuple:
    """The total, operator and arrows of an extension in a random basis p
    of its total space, not yet checked by the constructor."""
    big = total.dim
    while True:
        p = rand_matrix(rng, big, big)
        if rank(p) == big:
            break
    pinv = inverse(p)
    cols = [p.column(i) for i in range(big)]
    idx = range(big)
    binary = tuple(tuple(pinv.apply(bracket2(total, cols[i], cols[j])) for j in idx)
                   for i in idx)
    ternary = tuple(
        tuple(tuple(pinv.apply(bracket3(total, cols[i], cols[j], cols[k])) for k in idx)
              for j in idx)
        for i in idx)
    return (LyAlgebra(big, binary, ternary),
            ReynoldsOperator(pinv @ total_op.matrix @ p, total_op.weight),
            pinv @ inject, project @ p)


def scrambled(rng, ext: AbelianExtension) -> AbelianExtension:
    """ext in a random basis p of its total space, arrows carried along."""
    return AbelianExtension(*scrambled_parts(rng, ext.total, ext.total_op, ext.inject,
                                             ext.project))


def random_section(rng, ext: AbelianExtension) -> Section:
    """The canonical section moved by inject o iota for a random iota."""
    shift = ext.inject @ rand_matrix(rng, ext.module_dim, ext.base_dim)
    return Section(ext.canonical_section().map + shift)


def assert_readers_match_oracles(ext, section):
    assert base_data(ext, section) == base_data_by_solves(ext, section)
    assert extract_rep(ext, section) == extract_rep_by_solves(ext, section)
    assert extract_cocycle(ext, section) == extract_cocycle_by_solves(ext, section)


def coboundary(rng, algebra, op, rep) -> ExtensionCocycle:
    iota = rand_matrix(rng, rep.module_dim, algebra.dim)
    return ExtensionCocycle.from_cochain(
        d_rly(algebra, op, rep, RlyCochain(cochain_from_matrix(iota), None)))


def test_readers_match_solve_oracles_on_the_2dim_fixture(ly2, tri_t):
    rng = random.Random(81)
    rep = adjoint_rep(ly2, tri_t)
    for cocycle in kernel_cocycles(rng, ly2, tri_t, rep, 4):
        ext = build_extension(ly2, tri_t, rep, cocycle)
        moved = scrambled(rng, ext)
        for target in (ext, moved):
            for section in (None, random_section(rng, target), random_section(rng, target)):
                assert_readers_match_oracles(target, section)
        assert extract_rep(moved) == rep
        assert base_data(moved)[1:] == (tri_t, rep.module_op)


def test_readers_match_solve_oracles_on_dim3_bases():
    rng = random.Random(82)
    triples = [t for t in random_valid_triples(random.Random(83), 30) if t[0].dim == 3][:3]
    assert len(triples) == 3
    for algebra, op, rep in triples:
        ext = build_extension(algebra, op, rep, coboundary(rng, algebra, op, rep))
        moved = scrambled(rng, ext)
        assert_readers_match_oracles(ext, random_section(rng, ext))
        assert_readers_match_oracles(moved, None)
        assert_readers_match_oracles(moved, random_section(rng, moved))


def test_a_module_that_the_operator_leaves_raises_on_both_sides():
    """T_hat e2 = e1 + e2 leaves V = span(e2).  The total is abelian, so every
    other check passes, and the constructor's last check raises, in block
    form and with the arrows in a random basis."""
    parts = (abelian(2), ReynoldsOperator(Matrix.from_rows([[1, 1], [0, 1]]), F(0)),
             Matrix.from_rows([[0], [1]]), Matrix.from_rows([[1, 0]]))
    moved = scrambled_parts(random.Random(84), *parts)
    assert moved[2:] != _canonical_arrows(1, 1)
    for args in (parts, moved):
        with pytest.raises(InvalidInput, match="^vector does not lie in the module image$"):
            AbelianExtension(*args)


def test_sparse_assembly_matches_the_case_split_oracle(ly2, tri_t):
    rng = random.Random(85)
    triples = [(ly2, tri_t, adjoint_rep(ly2, tri_t))] + random_valid_triples(rng, 12)
    non_cocycles = 0
    for algebra, op, rep in triples:
        n, m = algebra.dim, rep.module_dim
        drawn = [unflatten_rly(2, n, m, [rand_fraction(rng) for _ in range(rly_dim(2, n, m))])
                 for _ in range(2)]
        non_cocycles += sum(not is_cocycle(algebra, op, rep, "rly", c) for c in drawn)
        cochains = kernel_cocycles(rng, algebra, op, rep, 2) + [
            coboundary(rng, algebra, op, rep)] + [ExtensionCocycle.from_cochain(c) for c in drawn]
        for cochain in cochains:
            assert assemble_extension(algebra, op, rep, cochain) == \
                assemble_extension_by_cases(algebra, op, rep, cochain)
    assert non_cocycles >= 10


def test_each_reader_of_a_scrambled_extension_changes_basis_once(ly2, tri_t, monkeypatch):
    """One change of basis per read with a random section: the readers pass
    one read down.  With the canonical section none: the constructor took
    that read, and the block-form copy is built from it."""
    import lyreynolds.extension as extension

    rng = random.Random(87)
    rep = adjoint_rep(ly2, tri_t)
    ext = build_extension(ly2, tri_t, rep, kernel_cocycles(rng, ly2, tri_t, rep, 1)[0])
    moved = scrambled(rng, ext)
    calls = []
    original = extension._section_basis
    # a real change of basis, not the identity shortcut of block form
    assert original(moved, moved.canonical_section())[0] is not moved.total.binary

    def counted(e, section):
        calls.append(section)
        return original(e, section)

    monkeypatch.setattr(extension, "_section_basis", counted)
    for section, expected in ((None, [0, 0, 0]), (random_section(rng, moved), [1, 1, 1])):
        made = []
        for reader in (base_data, extract_rep, extract_cocycle):
            calls.clear()
            reader(moved, section)
            made.append(len(calls))
        assert made == expected


def test_canonical_section_is_one_elimination(ly2, tri_t, monkeypatch):
    """Block-form arrows give the section [I; 0] with no elimination; other
    arrows eliminate once, for the right inverse of project."""
    rng = random.Random(86)
    rep = adjoint_rep(ly2, tri_t)
    ext = build_extension(ly2, tri_t, rep, kernel_cocycles(rng, ly2, tri_t, rep, 1)[0])
    moved = scrambled(rng, ext)
    sections = [ext.canonical_section(), moved.canonical_section()]
    calls = []
    original = linalg.eliminate

    def counted(m, reduced=False):
        calls.append(m.rows)
        return original(m, reduced)

    monkeypatch.setattr(linalg, "eliminate", counted)
    for target, section, eliminated in zip((ext, moved), sections, ([], [moved.base_dim])):
        calls.clear()
        assert target.canonical_section() == section
        assert calls == eliminated
        target.check_section(section)
    assert sections[0].map == Matrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]])
