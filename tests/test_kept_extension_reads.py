"""The fast paths of the extension layer against the paths they skip.

* ``build_extension`` keeps its certified inputs as the reads of the
  canonical section (base data, representation, defect cocycle); they must
  equal what is extracted from a twin built by hand from the same total and
  arrows, and from a copy in a random basis, which takes the ranks, the
  section and the change of basis.
* ``extensions_equivalent`` reads those kept values; on built pairs it must
  return what it returns on their twins, which extract and verify.
* Arrows equal to the block maps skip the exactness checks, never the ideal
  checks: each of the three raises on both arrow paths.
* ``d_rly`` applies the cone block by block; it must equal the stacked
  matrix of ``differential_matrix``, entry for entry.
* Off block form, the first reader of a fresh extension takes base data,
  representation and cocycle from one ``_section_basis`` read.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import lyreynolds.extension as extension_module
from lyreynolds import (
    AbelianExtension,
    LyAlgebra,
    Matrix,
    ReynoldsOperator,
    build_extension,
    cohomologous,
    d_rly,
    extensions_equivalent,
    extract_cocycle,
    extract_rep,
    is_cocycle,
)
from lyreynolds.algebra import binary_from_sparse, ternary_from_sparse
from lyreynolds.cohomology import differential_matrix, flatten_rly, rly_dim, unflatten_rly
from lyreynolds.errors import InvalidInput, LyError
from lyreynolds.extension import _canonical_arrows, base_data
from lyreynolds.fileformat import load_workspace
from lyreynolds.representation import check_inputs
from tests.conftest import (
    rand_fraction,
    random_reps,
    random_valid_triples,
    zero_rep_with_op,
)
from tests.test_block_form import coboundary, scrambled
from tests.test_extension import kernel_cocycles

F = Fraction
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def triples():
    """Valid triples of the five sampler families, the gate-passing ones of
    random_reps, and triples with T_V != T: samples/module.lyr's module of
    dimension 3, and zero modules with a random module operator."""
    out = random_valid_triples(random.Random(91), 6)
    for triple in random_reps(random.Random(92), 12):
        try:
            check_inputs(*triple)
        except LyError:
            continue
        out.append(triple)
    ws = load_workspace([str(SAMPLES / "module.lyr")])
    out.append((ws.algebra("ly2m"), ws.operator("Tm").op, ws.representation("adtriv").rep))
    rng = random.Random(93)
    for algebra, op, _rep in random_valid_triples(random.Random(94), 2):
        out.append((algebra, op, zero_rep_with_op(algebra.dim, 2, rng)))
    return out


TRIPLES = triples()


def built(algebra, op, rep, cocycle):
    """build_extension, or None on the known defect of dim-3 bases (ROADMAP
    item 4): a cone 2-cocycle whose total fails LY3 or LY4, which the block
    path must still raise."""
    try:
        return build_extension(algebra, op, rep, cocycle)
    except InvalidInput as err:
        assert algebra.dim == 3 and str(err).startswith("total algebra fails the axioms")
        return None


def reads(ext):
    return base_data(ext), extract_rep(ext), extract_cocycle(ext)


def twin(ext):
    return AbelianExtension(ext.total, ext.total_op, ext.inject, ext.project)


def test_the_inputs_include_a_module_operator_other_than_t():
    assert any(rep.module_op != op.matrix for _algebra, op, rep in TRIPLES)
    assert len(TRIPLES) >= 12


def test_kept_reads_equal_the_reads_of_a_twin_and_of_a_moved_copy():
    rng = random.Random(95)
    moved_count = compared = 0
    for algebra, op, rep in TRIPLES:
        for cocycle in kernel_cocycles(rng, algebra, op, rep, 2):
            ext = built(algebra, op, rep, cocycle)
            if ext is None:
                continue
            compared += 1
            kept = reads(ext)
            base, base_op, tv = kept[0]
            assert base.labels is None and base_op == op and tv == rep.module_op
            assert kept[1:] == (rep, cocycle)
            copy = twin(ext)
            assert not {"_base", "_rep", "_cocycle"} & set(vars(copy))
            assert reads(copy) == kept
            # a dense copy of a 6-dim total is slow to verify: two of them
            if algebra.dim == 3 and moved_count == 2:
                continue
            moved_count += algebra.dim == 3
            # its canonical section is another section of ext: the same base
            # data and representation, a cohomologous cocycle
            moved = scrambled(rng, ext)
            base_read, rep_read, cocycle_read = reads(moved)
            assert (base_read, rep_read) == kept[:2]
            assert cohomologous(algebra, op, rep, "rly", cocycle.to_cochain(),
                                cocycle_read.to_cochain())
    assert compared > len(TRIPLES) and moved_count == 2


def test_equivalences_of_built_pairs_equal_those_of_their_twins():
    rng = random.Random(96)
    found = {True: 0, False: 0}
    for algebra, op, rep in TRIPLES:
        c1, c2 = kernel_cocycles(rng, algebra, op, rep, 2)
        moved = type(c1).from_cochain(
            c1.to_cochain() + coboundary(rng, algebra, op, rep).to_cochain())
        for other in (c2, moved):
            e1, e2 = (built(algebra, op, rep, c) for c in (c1, other))
            if e1 is None or e2 is None:
                continue
            phi = extensions_equivalent(e1, e2)
            assert phi == extensions_equivalent(twin(e1), twin(e2))
            found[phi is not None] += 1
    # both answers, on every kind of triple
    assert min(found.values()) >= 5


def _total(n, m, binary=None, ternary=None):
    big = n + m
    return LyAlgebra(big, binary_from_sparse(big, binary or {}),
                     ternary_from_sparse(big, ternary or {}))


@pytest.mark.parametrize("n, m, total, message", [
    # [v1, v2] = v1
    (1, 2, _total(1, 2, binary={(1, 2, 1): 1}), "module image is not binary-abelian"),
    # {e1, v1, v2} = v1
    (1, 2, _total(1, 2, ternary={(0, 1, 2, 1): 1}),
     "module image is not a ternary-abelian ideal"),
    # [e1, v1] = e1
    (1, 1, _total(1, 1, binary={(0, 1, 0): 1}), "module image is not an ideal"),
], ids=["binary-abelian", "ternary-abelian", "ideal"])
def test_each_ideal_check_runs_on_both_arrow_paths(n, m, total, message):
    op = ReynoldsOperator(Matrix.identity(n + m), F(-1))
    inject, project = _canonical_arrows(n, m)
    # block form, and the same module image through an inject scaled by 2
    for arrows in ((inject, project), (inject.scale(2), project)):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            AbelianExtension(total, op, *arrows)


def test_the_cone_applied_by_blocks_equals_its_stacked_matrix():
    rng = random.Random(97)
    for algebra, op, rep in TRIPLES:
        n, m = algebra.dim, rep.module_dim
        for degree in (1, 2, 3) if n < 3 else (1, 2):
            c = unflatten_rly(degree, n, m, [rand_fraction(rng) if rng.random() < 0.5 else 0
                                             for _ in range(rly_dim(degree, n, m))])
            stacked = unflatten_rly(degree + 1, n, m, differential_matrix(
                algebra, op, rep, "rly", degree).apply(flatten_rly(c)))
            got = d_rly(algebra, op, rep, c)
            assert got == stacked and repr(got) == repr(stacked)
            assert is_cocycle(algebra, op, rep, "rly", c) == stacked.is_zero()


@pytest.mark.parametrize("reader", [extract_rep, extract_cocycle, base_data])
def test_the_first_read_off_block_form_takes_one_section_basis(monkeypatch, reader):
    """Off block form no section-basis read is kept, so the reads kept with
    it (base data, then the representation, then the cocycle) are all
    taken from the one read that the first reader makes."""
    calls = []
    original = extension_module._section_basis

    def counted(ext, section):
        calls.append(ext)
        return original(ext, section)

    rng = random.Random(98)
    algebra, op, rep = TRIPLES[0]
    ext = built(algebra, op, rep, kernel_cocycles(rng, algebra, op, rep, 1)[0])
    moved = scrambled(rng, ext)
    assert not moved._block_form
    monkeypatch.setattr(extension_module, "_section_basis", counted)
    got = reader(moved)
    assert len(calls) == 1
    assert got == reader(twin(moved))
