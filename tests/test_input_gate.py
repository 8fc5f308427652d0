"""The input gate: one cached check that (L, T) is a Reynolds Lie-Yamaguti
algebra and (V, T_V) a Reynolds representation of it, passed first by
every entry point.  Inputs that the entry points used to take unchecked,
the adjoint module certified instead of scanned, and the verifier calls a
command makes."""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import lyreynolds.cli as cli_module
import lyreynolds.representation as representation
import lyreynolds.reynolds as reynolds
from conftest import random_structures, random_valid_triples, with_entry_added
from lyreynolds import (
    LyAlgebra,
    Matrix,
    Representation,
    ReynoldsOperator,
    RlyCochain,
    adjoint_rep,
    binary_from_sparse,
    coboundary_preimage,
    cohomology_dims,
    descendant_algebra,
    differential_matrix,
    phi,
    semidirect_product,
    ternary_from_sparse,
    two_dim_example,
    verify_ly_axioms,
    verify_rep,
    verify_reynolds,
    verify_reynolds_rep,
    zero_rep,
)
from lyreynolds.cli import main
from lyreynolds.cohomology import Cochain
from lyreynolds.errors import InvalidInput, InvalidReynolds
from lyreynolds.representation import check_inputs

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def clear_engine_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("lyreynolds"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# inputs the entry points used to take unchecked

def non_reynolds_triple():
    """ly2 with T = (1 1; 0 1) at weight 0, which is not Reynolds on it, and
    a trivial module of dimension 1 with T_V = 1, whose module-operator
    identities hold for any T."""
    return (two_dim_example(), ReynoldsOperator(Matrix.from_rows([[1, 1], [0, 1]]), 0),
            zero_rep(2, 1, Matrix.from_rows([[1]])))


NON_REYNOLDS_CALLS = {
    "cohomology_dims": lambda a, t, r: cohomology_dims(a, t, r, "rly", 1),
    "differential_matrix": lambda a, t, r: differential_matrix(a, t, r, "rly", 1),
    "coboundary_preimage": lambda a, t, r: coboundary_preimage(
        a, t, r, "rly", RlyCochain.zero(2, 2, 1)),
    "phi": lambda a, t, r: phi(a, t, r, Cochain.zero(1, 2, 1)),
    "semidirect_product": semidirect_product,
}


@pytest.mark.parametrize("name", sorted(NON_REYNOLDS_CALLS))
def test_an_operator_that_is_not_reynolds_is_rejected(name):
    algebra, op, rep = non_reynolds_triple()
    report = verify_reynolds(algebra, op)
    assert not report.ok
    clear_engine_caches()
    with pytest.raises(InvalidReynolds) as err:
        NON_REYNOLDS_CALLS[name](algebra, op, rep)
    assert str(err.value) == report.describe()


def non_ly_triple():
    """[e1,e2] = e1, {e1,e2,e2} = 2 e1, {e1,e2,e1} = e2: antisymmetric, but
    not Lie-Yamaguti; T = 2 Id at weight -1/2 is Reynolds on any algebra,
    and the trivial module of dimension 1 is a representation of any."""
    algebra = LyAlgebra(2, binary_from_sparse(2, {(0, 1, 0): 1}),
                        ternary_from_sparse(2, {(0, 1, 1, 0): 2, (0, 1, 0, 1): 1}))
    op = ReynoldsOperator(Matrix.identity(2).scale(2), Fraction(-1, 2))
    return algebra, op, zero_rep(2, 1, Matrix.from_rows([[1]]))


NON_LY_CALLS = {
    "descendant_algebra": lambda a, t, r: descendant_algebra(a, t),
    "ly": lambda a, t, r: cohomology_dims(a, t, r, "ly", 2),
    "ro": lambda a, t, r: cohomology_dims(a, t, r, "ro", 2),
    "rly": lambda a, t, r: cohomology_dims(a, t, r, "rly", 2),
}


@pytest.mark.parametrize("name", sorted(NON_LY_CALLS))
def test_an_algebra_that_is_not_lie_yamaguti_is_rejected(name):
    algebra, op, rep = non_ly_triple()
    report = verify_ly_axioms(algebra)
    assert not report.ok
    assert verify_reynolds(algebra, op).ok
    clear_engine_caches()
    with pytest.raises(InvalidInput) as err:
        NON_LY_CALLS[name](algebra, op, rep)
    assert str(err.value) == "algebra fails the Lie-Yamaguti axioms:\n" + report.describe()


# ---------------------------------------------------------------------------
# the adjoint module, certified

def test_the_adjoint_certificate_rests_on_the_verified_premises():
    # rho(x) = [x, -] and theta(x, y) = {-, x, y} satisfy the representation
    # identities whenever L satisfies LY1-LY6, and with T_V = T the
    # module-operator identities exactly when T is Reynolds
    seen = Counter()
    for algebra, op in random_structures(random.Random(81), 400):
        if not verify_ly_axioms(algebra).ok:
            seen["not LY"] += 1
            continue
        adjoint = adjoint_rep(algebra, op)
        assert verify_rep(algebra, adjoint).ok
        is_reynolds = verify_reynolds(algebra, op).ok
        assert verify_reynolds_rep(algebra, op, adjoint).ok == is_reynolds
        seen[is_reynolds] += 1
    assert seen[True] >= 40 and seen[False] >= 40 and seen["not LY"] >= 100, seen


def counted_verifiers(monkeypatch):
    """Counts of the calls to the two representation verifiers, under the
    names the engine and the CLI call them by."""
    calls = Counter()
    for name in ("verify_rep", "verify_reynolds_rep"):
        def counting(*args, name=name, original=getattr(representation, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(representation, name, counting)
        monkeypatch.setattr(cli_module, name, counting)
    return calls


@pytest.mark.parametrize("where", ["rho", "theta"])
def test_a_mutant_of_the_adjoint_is_scanned_and_rejected(monkeypatch, ly2, tri_t, where):
    adjoint = adjoint_rep(ly2, tri_t)
    rho, theta = adjoint.rho, adjoint.theta
    if where == "rho":
        rho = (with_entry_added(rho[0], 0, 0),) + rho[1:]
    else:
        theta = ((theta[0][0], with_entry_added(theta[0][1], 0, 0)),) + theta[1:]
    mutant = Representation(2, 2, rho, theta, adjoint.module_op)
    report = verify_rep(ly2, mutant)
    assert not report.ok
    clear_engine_caches()
    calls = counted_verifiers(monkeypatch)
    with pytest.raises(InvalidInput) as err:
        check_inputs(ly2, tri_t, mutant)
    assert str(err.value) == "representation fails verification:\n" + report.describe()
    assert calls == Counter(verify_rep=1)
    # the adjoint itself is certified
    check_inputs(ly2, tri_t, adjoint)
    assert calls == Counter(verify_rep=1)


def test_a_module_operator_other_than_t_on_the_adjoint_is_scanned(monkeypatch, ly2, tri_t):
    adjoint = adjoint_rep(ly2, tri_t)
    other = Representation(2, 2, adjoint.rho, adjoint.theta, Matrix.identity(2))
    report = verify_reynolds_rep(ly2, tri_t, other)
    assert not report.ok
    clear_engine_caches()
    calls = counted_verifiers(monkeypatch)
    with pytest.raises(InvalidInput) as err:
        check_inputs(ly2, tri_t, other)
    assert str(err.value) == "module operator fails verification:\n" + report.describe()
    assert calls == Counter(verify_reynolds_rep=1)


def padded(rep: Representation) -> Representation:
    """rep on V plus a one-dimensional summand on which rho and theta vanish:
    the same nonzero entries, a module one dimension larger."""
    m = rep.module_dim

    def pad(mat):
        return Matrix.from_rows([row + [0] for row in mat.to_rows()] + [[0] * (m + 1)], m + 1)

    return Representation(rep.algebra_dim, m + 1, tuple(map(pad, rep.rho)),
                          tuple(tuple(map(pad, row)) for row in rep.theta))


def gate_cases():
    """(algebra, rep) pairs: each adjoint of random_valid_triples, the same
    without its module operator, with one theta entry moved, and padded by a
    trivial summand, and the zero module of the algebra's dimension."""
    for algebra, op, adjoint in random_valid_triples(random.Random(28), 30):
        n = algebra.dim
        theta = [list(row) for row in adjoint.theta]
        theta[-1][-1] = with_entry_added(theta[-1][-1], 0, 0)
        yield from ((algebra, adjoint), (algebra, adjoint_rep(algebra)),
                    (algebra, Representation(n, n, adjoint.rho, tuple(map(tuple, theta)))),
                    (algebra, padded(adjoint)), (algebra, zero_rep(n, n)))


def test_the_gate_reads_adjointness_off_the_cells(monkeypatch):
    # the verdict of comparing with a third adjoint representation, which
    # the gate no longer builds; every other module is scanned
    cases = [(algebra, rep, (rep.rho, rep.theta) == (ad.rho, ad.theta))
             for algebra, rep in gate_cases() for ad in [adjoint_rep(algebra)]]
    seen = Counter(adjoint for *_, adjoint in cases)
    assert seen[True] >= 60 and seen[False] >= 60, seen
    calls = counted_verifiers(monkeypatch)
    monkeypatch.setattr(representation, "adjoint_rep",
                        lambda *args: pytest.fail("the gate built an adjoint representation"))
    for algebra, rep, adjoint in cases:
        clear_engine_caches()
        calls.clear()
        try:
            assert representation._require_reynolds_rep(algebra, None, rep) == adjoint
        except InvalidInput:
            assert not adjoint
        assert calls == Counter(verify_rep=int(not adjoint))


@pytest.mark.parametrize("sample, triple, expected", [
    ("sl2.lyr", ("sl2", "Tsl2", "adsl2"), Counter()),
    # the adjoint plus a trivial summand: not the adjoint, so scanned
    ("module.lyr", ("ly2m", "Tm", "adtriv"), Counter(verify_rep=1, verify_reynolds_rep=1)),
])
def test_cohomology_scans_only_a_module_that_is_not_adjoint(monkeypatch, capsys, sample,
                                                            triple, expected):
    algebra, op, rep = triple
    clear_engine_caches()
    calls = counted_verifiers(monkeypatch)
    code = main(["cohomology", str(SAMPLES / sample), "--algebra", algebra,
                 "--operator", op, "--rep", rep, "--max-degree", "3"])
    assert code == 0
    assert "d3 o d2 = 0: pass" in capsys.readouterr().out
    assert calls == expected


def test_each_input_is_scanned_once_across_the_complexes(monkeypatch, ly2, tri_t):
    # the ly complex is gated without T and the others with it; L, T, V and
    # T_V are scanned once between them (T and T_V invertible: the
    # descendant pair is certified, not scanned)
    rep = zero_rep(2, 1, Matrix.from_rows([[3]]))
    clear_engine_caches()
    calls = counted_verifiers(monkeypatch)
    for name in ("verify_ly_axioms", "verify_reynolds"):
        def counting(*args, name=name, original=getattr(reynolds, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(reynolds, name, counting)
    for which in ("ly", "ro", "rly"):
        for degree in (1, 2):
            differential_matrix(ly2, tri_t, rep, which, degree)
    assert calls == Counter(verify_ly_axioms=1, verify_reynolds=1, verify_rep=1,
                            verify_reynolds_rep=1)
