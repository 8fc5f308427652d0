"""The certificate that an assembled total operator is Reynolds.

Over a gated triple (L, T, V), the operator that ``assemble_extension``
writes from a degree-2 cone cochain c = (nu, psi, chi) is Reynolds on the
assembled total exactly when the lower component -partial chi - phi(nu,
psi) of d_rly(c) vanishes.  So ``build_extension`` certifies the Reynolds
half after its cocycle test (``ReynoldsOperator._reynolds_on``), and the
constructor scans LY1-LY6 only.  Here:

* the equivalence is checked on every basis cochain and on random sparse
  ones, over adjoint modules and wider modules with T_V != T, and every
  kernel vector of the degree-2 cone differential assembles into a Reynolds
  total, some of them into totals that fail LY1-LY6;
* ``semidirect_product`` and the block-form copy write the certificate and
  skip that scan; an operator read from a file, built by a caller or
  handed over with a total other than the one it was certified on is
  scanned.
"""

import random
from collections import Counter

import lyreynolds.representation as representation_module
import lyreynolds.reynolds as reynolds_module
from lyreynolds import (
    AbelianExtension,
    ExtensionCocycle,
    LyAlgebra,
    ReynoldsOperator,
    build_extension,
    extensions_equivalent,
    semidirect_product,
    verify_ly_axioms,
    verify_reynolds,
)
from lyreynolds.cohomology import d_rly, differential_matrix, rly_dim, unflatten_rly
from lyreynolds.errors import LyError
from lyreynolds.extension import assemble_extension
from lyreynolds.fileformat import load_workspace
from lyreynolds.linalg import kernel_basis
from lyreynolds.representation import check_inputs
from tests.conftest import rand_fraction, random_reps, random_valid_triples
from tests.test_block_form import scrambled
from tests.test_built_extensions import _spied
from tests.test_extension import kernel_cocycles
from tests.test_input_gate import SAMPLES, clear_engine_caches


def gated_triples():
    """Adjoint modules of the sampler families, and the gate-passing
    triples of random_reps with modules wider than the algebra (T_V !=
    T)."""
    out = random_valid_triples(random.Random(141), 12)
    for triple in random_reps(random.Random(142), 40, extra=2):
        try:
            check_inputs(*triple)
        except LyError:
            continue
        out.append(triple)
    return out


TRIPLES = gated_triples()


def cochains(rng, n, m):
    """Every basis cochain of the degree-2 cone, then as many random ones
    with one to three nonzero coordinates."""
    size = rly_dim(2, n, m)
    flats = [[int(i == k) for i in range(size)] for k in range(size)]
    for _ in range(size):
        flat = [0] * size
        for k in rng.sample(range(size), min(size, rng.randint(1, 3))):
            flat[k] = rand_fraction(rng, nonzero=True)
        flats.append(flat)
    return [unflatten_rly(2, n, m, flat) for flat in flats]


def test_the_triples_include_wider_modules():
    assert any(rep.module_dim > algebra.dim for algebra, _op, rep in TRIPLES)
    assert any(rep.module_op != op.matrix for _algebra, op, rep in TRIPLES)


def test_the_total_operator_is_reynolds_exactly_when_the_lower_component_vanishes():
    rng = random.Random(143)
    outcomes = Counter()
    for algebra, op, rep in TRIPLES:
        for c in cochains(rng, algebra.dim, rep.module_dim):
            lower_zero = d_rly(algebra, op, rep, c).tail.is_zero()
            total = assemble_extension(algebra, op, rep, ExtensionCocycle.from_cochain(c))
            assert verify_reynolds(*total).ok == lower_zero
            outcomes[lower_zero] += 1
    assert outcomes[True] >= 500 and outcomes[False] >= 200


def test_every_kernel_cocycle_assembles_into_a_reynolds_total():
    cocycles = ly_failures = 0
    for algebra, op, rep in TRIPLES:
        n, m = algebra.dim, rep.module_dim
        for v in kernel_basis(differential_matrix(algebra, op, rep, "rly", 2)).vectors:
            c = unflatten_rly(2, n, m, v)
            total, total_op = assemble_extension(
                algebra, op, rep, ExtensionCocycle.from_cochain(c))
            assert verify_reynolds(total, total_op).ok
            cocycles += 1
            ly_failures += not verify_ly_axioms(total).ok
    assert cocycles >= 300 and ly_failures >= 1


def test_the_semidirect_product_takes_the_gate_s_reynolds_battery(monkeypatch):
    """On samples/module.lyr's module of dimension 3 the input gate runs the
    Reynolds battery on the semidirect total of dimension 5;
    semidirect_product certifies its operator instead of running it again,
    and still scans LY1-LY6 of that total."""
    ws = load_workspace([str(SAMPLES / "module.lyr")])
    triple = ws.algebra("ly2m"), ws.operator("Tm").op, ws.representation("adtriv").rep
    clear_engine_caches()
    spies = [_spied(monkeypatch, ("verify_ly_axioms",))] + [
        _spied(monkeypatch, ("_reynolds_identities",), module)
        for module in (reynolds_module, representation_module)]
    total, total_op = semidirect_product(*triple)
    calls = sum(spies, Counter())
    assert calls[("_reynolds_identities", 5)] == 1 and calls[("verify_ly_axioms", 5)] == 1
    assert total_op._reynolds_on is total and verify_reynolds(total, total_op).ok


def test_the_block_form_copy_is_certified(monkeypatch):
    """A scrambled build and one equivalence query scan the Reynolds
    identities once, on the scrambled total; its block-form copy is a
    change of basis of that verified total and is certified."""
    rng = random.Random(144)
    algebra, op, rep = TRIPLES[0]
    calls = _spied(monkeypatch, ("verify_reynolds",))
    ext = build_extension(algebra, op, rep, kernel_cocycles(rng, algebra, op, rep, 1)[0])
    moved = scrambled(rng, ext)
    assert extensions_equivalent(moved, ext) is not None
    assert sum(calls.values()) == 1
    copy = moved._block_copy
    assert copy.total_op._reynolds_on is copy.total and moved.total_op._reynolds_on is None


def test_only_the_extension_layer_certifies(monkeypatch):
    """Loaded and caller-built operators carry no certificate, and a
    certified operator handed over with an equal but other total is
    scanned."""
    ws = load_workspace([str(SAMPLES / "extension.lyr")])
    entry = ws.extensions["E1"]
    loaded = ws.algebra(entry.total), ws.operator(entry.total_operator).op
    assert loaded[1]._reynolds_on is None
    rng = random.Random(145)
    algebra, op, rep = TRIPLES[0]
    built = build_extension(algebra, op, rep, kernel_cocycles(rng, algebra, op, rep, 1)[0])
    assert built.total_op._reynolds_on is built.total
    plain = ReynoldsOperator(built.total_op.matrix, built.total_op.weight)
    assert plain._reynolds_on is None and plain == built.total_op
    calls = _spied(monkeypatch, ("verify_reynolds",))
    AbelianExtension(*loaded, entry.inject, entry.project)
    other = LyAlgebra(built.total.dim, built.total.binary, built.total.ternary)
    for total, total_op in ((other, built.total_op), (built.total, plain)):
        AbelianExtension(total, total_op, built.inject, built.project)
    assert sum(calls.values()) == 3
