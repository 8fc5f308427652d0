"""Extensions built by ``build_extension`` against the general constructor.

``build_extension`` writes its total's tensors as antisymmetric by
construction, without re-validating them, and reads its block form as the
total's own tensors.  So:

* every built extension equals the one that the general constructor makes
  of the same total and arrows; the total equals the cell-by-cell assembly
  oracle, both tensors are antisymmetric by a scan, and the reads of the
  constructor's twin equal the kept ones;
* a cocycle whose total fails LY3 or LY4 (the known defect on bases of
  dimension 3) still raises, and each build makes one scan of the total by
  each verifier and one cocycle test;
* the block-form copy of an extension in another basis is kept with the
  reads of its canonical section, so repeated equivalence queries and
  reads verify it once and change its basis once.
"""

import random
from collections import Counter
from fractions import Fraction

import lyreynolds.extension as extension_module
from lyreynolds import (
    AbelianExtension,
    ExtensionCocycle,
    Matrix,
    ReynoldsOperator,
    adjoint_rep,
    build_extension,
    extensions_equivalent,
)
from lyreynolds.algebra import _antisymmetry_failure
from lyreynolds.cohomology import unflatten_rly
from lyreynolds.errors import InvalidInput
from lyreynolds.extension import class_representatives, to_block_form
from tests.conftest import _leibniz3, _sl2
from tests.oracles import assemble_extension_by_cases
from tests.test_block_form import scrambled
from tests.test_extension import kernel_cocycles
from tests.test_kept_extension_reads import TRIPLES, built, reads, twin

F = Fraction


def cocycles(rng, algebra, op, rep):
    """The class representatives of the triple and two random nonzero
    cocycles."""
    n, m = algebra.dim, rep.module_dim
    out = [ExtensionCocycle.from_cochain(unflatten_rly(2, n, m, v))
           for v in class_representatives(algebra, op, rep)]
    return out + [c for c in kernel_cocycles(rng, algebra, op, rep, 3)
                  if not c.to_cochain().is_zero()][:2]


def test_built_extensions_equal_those_of_the_general_constructor():
    rng = random.Random(131)
    compared = 0
    for algebra, op, rep in TRIPLES:
        for cocycle in cocycles(rng, algebra, op, rep):
            ext = built(algebra, op, rep, cocycle)
            if ext is None:
                continue
            compared += 1
            general = twin(ext)
            assert ext == general and ext._block_form and general._block_form
            assert (ext.inject, ext.project) == (general.inject, general.project)
            assert (ext.total, ext.total_op) == assemble_extension_by_cases(
                algebra, op, rep, cocycle)
            for tensor in (ext.total.binary, ext.total.ternary):
                assert tensor.antisymmetric and _antisymmetry_failure(tensor) is None
            assert reads(general) == reads(ext)
    assert compared >= 2 * len(TRIPLES)


def test_a_total_that_fails_the_axioms_still_raises():
    """On leibniz3 with c Id and on sl2 with the zero operator, some cone
    2-cocycles assemble into totals that fail LY3 or LY4: the built path
    scans the total and raises."""
    rng = random.Random(132)
    raised = Counter()
    for algebra in (_leibniz3(), _sl2()):
        for op in (ReynoldsOperator(Matrix.identity(3).scale(2), F(-1, 2)),
                   ReynoldsOperator(Matrix.zero(3, 3), F(1))):
            rep = adjoint_rep(algebra, op)
            for cocycle in cocycles(rng, algebra, op, rep):
                try:
                    build_extension(algebra, op, rep, cocycle)
                except InvalidInput as err:
                    text = str(err)
                    assert text.startswith("total algebra fails the axioms:\n")
                    raised.update(name for name in ("LY3", "LY4")
                                  if f"{name}: FAIL" in text)
    assert raised["LY3"] >= 1


def _spied(monkeypatch, names):
    """Count the calls of each of ``names`` in the extension module, with
    the dimension of the first argument (of its total, for an extension)."""
    calls = Counter()
    for name in names:
        original = getattr(extension_module, name)

        def spy(*args, _name=name, _original=original):
            calls[_name, getattr(args[0], "total", args[0]).dim] += 1
            return _original(*args)

        monkeypatch.setattr(extension_module, name, spy)
    return calls


def test_each_build_scans_the_total_once_and_tests_the_cocycle_once(monkeypatch):
    rng = random.Random(133)
    calls = _spied(monkeypatch, ("verify_ly_axioms", "verify_reynolds", "is_cocycle"))
    builds = 0
    for algebra, op, rep in TRIPLES[:8]:
        for cocycle in cocycles(rng, algebra, op, rep)[:2]:
            before = Counter(calls)
            ext = built(algebra, op, rep, cocycle)
            if ext is None:
                continue
            builds += 1
            big = ext.total.dim
            assert calls - before == Counter({("verify_ly_axioms", big): 1,
                                              ("verify_reynolds", big): 1,
                                              ("is_cocycle", algebra.dim): 1})
            # the kept reads take no further scan
            reads(ext)
            assert calls - before == Counter({("verify_ly_axioms", big): 1,
                                              ("verify_reynolds", big): 1,
                                              ("is_cocycle", algebra.dim): 1})
    assert builds >= 8


def test_the_block_form_copy_is_verified_once(monkeypatch):
    rng = random.Random(134)
    algebra, op, rep = TRIPLES[0]
    ext = build_extension(algebra, op, rep, kernel_cocycles(rng, algebra, op, rep, 1)[0])
    moved = scrambled(rng, ext)
    assert not moved._block_form
    calls = _spied(monkeypatch, ("verify_ly_axioms", "verify_reynolds_rep", "is_cocycle"))
    for _ in range(3):
        assert extensions_equivalent(moved, ext) is not None
    assert sorted(name for name, _dim in calls.elements()) == [
        "is_cocycle", "verify_ly_axioms", "verify_reynolds_rep"]
    copy = to_block_form(moved)
    assert copy is to_block_form(moved) and copy._block_form
    assert copy == AbelianExtension(copy.total, copy.total_op, ext.inject, ext.project)
    assert "_block_copy" not in vars(ext)


def test_the_reads_off_block_form_are_the_copy_s(monkeypatch):
    """An equivalence query and then the three reads of the canonical
    section take one change of basis and one scan of each kind, all on the
    block-form copy."""
    rng = random.Random(135)
    algebra, op, rep = TRIPLES[0]
    ext = build_extension(algebra, op, rep, kernel_cocycles(rng, algebra, op, rep, 1)[0])
    moved = scrambled(rng, ext)
    calls = _spied(monkeypatch, ("_section_basis", "verify_ly_axioms", "verify_reynolds_rep",
                                 "is_cocycle"))
    assert extensions_equivalent(moved, ext) is not None
    kept = reads(moved)
    assert sorted(name for name, _dim in calls.elements()) == [
        "_section_basis", "is_cocycle", "verify_ly_axioms", "verify_reynolds_rep"]
    copy = to_block_form(moved)
    assert reads(copy) == kept and kept == reads(twin(copy))
    assert not {"_base", "_rep", "_cocycle"} & set(vars(moved))
