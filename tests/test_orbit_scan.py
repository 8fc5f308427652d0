"""Orbit-reduced identity scans against the full scans they replace.

An identity antisymmetric within groups of consecutive slots is decided on
the basis tuples increasing within each group (``orbit_tuples`` in
``tests/oracles.py``).  LY1-LY6 are written onto those tuples by the
cell-pair kernel, and the Reynolds and derivation identities are whole
tensors; all three report their least nonzero position, and the
representation and module-operator identities are read off the first two
on the semidirect total.  So each of them, and the deformation battery,
is compared with its dense oracle over every tuple (``tests/oracles.py``)
on seeded random antisymmetric structures, most of them failing, so that
witnesses and residuals are compared and not only verdicts.  The premise
of the reduction, that every shaped residual negates under a swap within
a group and vanishes on a repeated index, is tested on its own.  On the
total of an extension in block form, whose module image is an abelian
ideal, a tuple with two module indices has residual 0; that premise is
tested too, and the total's scan compared with the earlier one orbit tuple
at a time (``tests/oracles.py``).
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest

from conftest import rand_fraction, rand_matrix, random_reps, random_valid_triples
from oracles import (
    LY_NAMES,
    derivation_check_dense,
    orbit_ly_identities,
    orbit_tuples,
    verify_deformation_dense,
    verify_ly_axioms_by_orbits,
    verify_ly_axioms_dense,
    verify_rep_dense,
    verify_reynolds_dense,
    verify_reynolds_rep_dense,
)
import lyreynolds.extension as extension_mod
from lyreynolds import (
    AbelianExtension,
    ExtensionCocycle,
    LyAlgebra,
    Matrix,
    Representation,
    ReynoldsOperator,
    TruncatedDeformation,
    adjoint_rep,
    build_extension,
    derivation_check,
    extensions_equivalent,
    semidirect_product,
    verify_deformation,
    verify_ly_axioms,
    verify_rep,
    verify_reynolds,
    verify_reynolds_rep,
)
from lyreynolds.algebra import (
    IntegerRead,
    binary_from_sparse,
    ternary_from_sparse,
    tuple_residual,
)
from lyreynolds.cohomology import rly_dim, unflatten_rly
from lyreynolds.errors import InternalInconsistency, InvalidInput
from lyreynolds.extension import _canonical_arrows, assemble_extension, to_block_form
from lyreynolds.reynolds import _derivation_identities, _reynolds_identities

F = Fraction

# the shape every identity declares; a shape of ones is the full scan
SHAPES = {
    "LY1": (1, 1), "LY2": (1, 1, 1), "LY3": (3,), "LY4": (3, 1), "LY5": (2, 2),
    "LY6": (2, 2, 1),
    "reynolds-binary": (2,), "reynolds-ternary": (2, 1),
    "derivation-binary": (2,), "derivation-ternary": (2, 1),
}

# the representation identities of shape other than ones, which the
# comparison must see failing
REP_NAMES = ("theta-of-bracket", "d-rho-compat", "rho-of-bracket", "d-theta-compat",
             "theta-of-ternary")


def increasing_within_groups(tup, shape) -> bool:
    start = 0
    for k in shape:
        group = tup[start:start + k]
        if any(a >= b for a, b in zip(group, group[1:])):
            return False
        start += k
    return True


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (3, 1),
                                   (2, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)])
def test_orbit_tuples_are_the_increasing_tuples_in_product_order(shape):
    for dim in range(6):
        got = list(orbit_tuples(dim, shape))
        want = [t for t in product(range(dim), repeat=sum(shape))
                if increasing_within_groups(t, shape)]
        assert got == want
        assert len(got) == prod(comb(dim, k) for k in shape)
    assert list(orbit_tuples(3, (1, 1))) == list(product(range(3), repeat=2))


# ---------------------------------------------------------------------------
# random antisymmetric inputs of dimension 2-5

def sparse_entries(rng, dim: int, arity: int, most: int = 4) -> dict:
    """A few random entries at index pairs i < j, so that no two of them
    are antisymmetric images of each other."""
    return {(*sorted(rng.sample(range(dim), 2)),
             *(rng.randrange(dim) for _ in range(arity - 2))): rand_fraction(rng, nonzero=True)
            for _ in range(rng.randint(1, most))}


def random_algebra(rng, dim: int) -> LyAlgebra:
    return LyAlgebra(dim, binary_from_sparse(dim, sparse_entries(rng, dim, 3)),
                     ternary_from_sparse(dim, sparse_entries(rng, dim, 4)))


def random_sparse_matrix(rng, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        [[rand_fraction(rng) if rng.random() < 0.4 else 0 for _ in range(cols)]
         for _ in range(rows)], cols)


def random_rep(rng, dim: int, module_dim: int) -> Representation:
    rho = tuple(random_sparse_matrix(rng, module_dim, module_dim) for _ in range(dim))
    theta = tuple(tuple(random_sparse_matrix(rng, module_dim, module_dim)
                        for _ in range(dim)) for _ in range(dim))
    return Representation(dim, module_dim, rho, theta,
                          rand_matrix(rng, module_dim, module_dim))


def random_inputs(rng, count: int, dims=(2, 3, 4, 5)):
    """(algebra, operator, representation, derivation) quadruples: nine in
    ten random over a random dimension, most of them failing; the rest
    valid, from conftest.random_valid_triples, so that passing reports are
    compared too."""
    out = []
    while len(out) < count:
        if len(out) % 10 == 9:
            algebra, op, rep = random_valid_triples(rng, 1)[0]
        else:
            dim = rng.choice(dims)
            algebra = random_algebra(rng, dim)
            op = ReynoldsOperator(random_sparse_matrix(rng, dim, dim), rand_fraction(rng))
            rep = random_rep(rng, dim, rng.randint(1, 2))
        n = algebra.dim
        dm = rand_matrix(rng, n, n) if rng.random() < 0.8 else Matrix.zero(n, n)
        out.append((algebra, op, rep, dm))
    return out


def random_deformation(rng, algebra, op, order: int) -> TruncatedDeformation:
    n = algebra.dim
    fs, gs, ts = [algebra.binary], [algebra.ternary], [op.matrix]
    for _ in range(order):
        fs.append(binary_from_sparse(n, sparse_entries(rng, n, 3, 2)))
        gs.append(ternary_from_sparse(n, sparse_entries(rng, n, 4, 2)))
        ts.append(random_sparse_matrix(rng, n, n))
    return TruncatedDeformation(order, tuple(fs), tuple(gs), tuple(ts))


def outcome(fn, *args):
    """The report of fn(*args) with its JSON, or the exception it raised."""
    try:
        report = fn(*args)
    except InternalInconsistency as err:
        return ("raised", str(err))
    return (report, report.to_json())


def failures(result) -> list[str]:
    report = result[0]
    if report == "raised":
        return []
    if hasattr(report, "orders"):
        return [c.name for n, r in enumerate(report.orders) if n for c in r.failures()]
    return [c.name for c in report.failures()]


def test_reduced_scan_equals_full_scan():
    # no verifier reaches orbit_tuples: the full scan of each is its dense
    # oracle over every tuple
    rng = random.Random(61)
    failed = Counter()
    for algebra, op, rep, dm in random_inputs(rng, 60):
        for fn, dense, args in ((verify_ly_axioms, verify_ly_axioms_dense, (algebra,)),
                                (verify_reynolds, verify_reynolds_dense, (algebra, op)),
                                (derivation_check, derivation_check_dense, (algebra, dm)),
                                (verify_rep, verify_rep_dense, (algebra, rep)),
                                (verify_reynolds_rep, verify_reynolds_rep_dense,
                                 (algebra, op, rep))):
            reduced = outcome(fn, *args)
            assert reduced == outcome(dense, *args), (fn.__name__, algebra)
            failed.update(failures(reduced))
    for name in (*(name for name, shape in SHAPES.items() if max(shape) > 1), *REP_NAMES):
        assert failed[name] >= 5, name


@pytest.mark.parametrize("order", [1, 2, 3])
def test_reduced_scan_equals_full_scan_on_deformations(order):
    # verify_deformation reaches orbit_tuples no more: its full scan is the
    # dense oracle over every tuple
    rng = random.Random(70 + order)
    failed = Counter()
    dims = (2, 3, 4) if order < 3 else (2, 3)
    for algebra, op, _rep, _dm in random_inputs(rng, 20, dims):
        deformation = random_deformation(rng, algebra, op, order)
        reduced = outcome(verify_deformation, algebra, op, deformation)
        assert reduced == outcome(verify_deformation_dense, algebra, op, deformation)
        failed.update(failures(reduced))
    for name in ("cyclic-binary", "cyclic-mixed", "derivation-binary",
                 "derivation-ternary", "operator-binary", "operator-ternary"):
        assert failed[name] >= 5, name


# ---------------------------------------------------------------------------
# the premise: antisymmetric within each group of the declared shape

def named_identities(rng, algebra, op, dm, order: int):
    """Every shaped identity at one input, as (name, shape, residual)
    triples; the bracket and operator identities at ``order``, 0 to 3, of a
    random order-3 deformation of (algebra, op).  LY1-LY6 are those of the
    per-tuple oracle, and the whole-tensor Reynolds and derivation residuals
    are read one tuple at a time.  The representation and module-operator
    identities are LY4-LY6 and the Reynolds identities of the semidirect
    total, and have no residual of their own."""
    d = random_deformation(rng, algebra, op, 3)
    read = IntegerRead(d.F, d.G, d.Tt, op.weight)
    base = ((algebra.binary,), (algebra.ternary,))
    for name, (shape, fn, _den) in zip(LY_NAMES, orbit_ly_identities(d.F, d.G, order)):
        yield name, shape, fn
    for names, identities in ((("reynolds-binary", "reynolds-ternary"),
                               _reynolds_identities(read)[order]),
                              (("derivation-binary", "derivation-ternary"),
                               _derivation_identities(IntegerRead(*base, (dm,))))):
        for name, (depth, acc, _den) in zip(names, identities):
            yield name, SHAPES[name], tuple_residual(acc, (algebra.dim,) * (depth + 1))


def normal(residual: dict) -> dict:
    """A {coordinate: value} residual with its zero entries dropped."""
    return {k: v for k, v in residual.items() if v}


def negated(residual: dict) -> dict:
    return {k: -v for k, v in residual.items()}


def test_shaped_residuals_are_antisymmetric_within_groups():
    rng = random.Random(67)
    nonzero = Counter()
    seen = {}
    for algebra, op, _rep, dm in random_inputs(rng, 24, (3, 4, 5)):
        if algebra.dim < 3:
            continue
        for name, shape, fn in named_identities(rng, algebra, op, dm, rng.randint(0, 3)):
            seen[name] = shape
            for _ in range(6):
                # distinct within each group, where a residual can be nonzero
                tup = [i for k in shape for i in rng.sample(range(algebra.dim), k)]
                r = normal(fn(*tup))
                nonzero[name] += bool(r)
                start = 0
                for k in shape:
                    for p, q in combinations(range(start, start + k), 2):
                        swapped = list(tup)
                        swapped[p], swapped[q] = swapped[q], swapped[p]
                        assert normal(fn(*swapped)) == negated(r), (name, tup, p, q)
                        repeated = list(tup)
                        repeated[q] = repeated[p]
                        assert not normal(fn(*repeated)), (name, repeated)
                    start += k
    assert seen == SHAPES
    for name, shape in SHAPES.items():
        if max(shape) > 1:
            assert nonzero[name] >= 5, name


# ---------------------------------------------------------------------------
# call counts

def failing_sl2_total(sl2):
    """sl2 with T = 2 Id of weight -1/2 and its adjoint module, assembled
    with a cochain psi(e1, e2) = v1 that is no cocycle: a total of
    dimension 6, in block form, that fails LY3, LY5 and LY6."""
    op = ReynoldsOperator(Matrix.identity(3).scale(2), F(-1, 2))
    rep = adjoint_rep(sl2, op)
    z = (F(0),) * 3
    psi = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    psi[0][1][2], psi[1][0][2] = (F(1), F(0), F(0)), (F(-1), F(0), F(0))
    return assemble_extension(
        sl2, op, rep, ExtensionCocycle([[z] * 3 for _ in range(3)], psi, Matrix.zero(3, 3)))


def test_ly_report_on_the_sl2_semidirect_total_equals_both_oracles(sl2):
    op = ReynoldsOperator(Matrix.identity(3).scale(2), F(-1, 2))
    total, _total_op = semidirect_product(sl2, op, adjoint_rep(sl2, op))
    failing, failing_op = failing_sl2_total(sl2)
    moved = moved_extension(failing, failing_op, 3)[0]
    for algebra, ok in ((total, True), (failing, False), (moved, False)):
        assert algebra.dim == 6
        report = verify_ly_axioms(algebra)
        assert report.ok == ok
        assert report == verify_ly_axioms_by_orbits(algebra) == verify_ly_axioms_dense(algebra)


def test_equivalence_of_a_block_form_extension_is_not_reverified(monkeypatch, ly2, tri_t):
    rep = adjoint_rep(ly2, tri_t)
    ext = build_extension(ly2, tri_t, rep, ExtensionCocycle.zero(2, 2))
    assert to_block_form(ext) is ext
    built = Counter()
    original = AbelianExtension.__post_init__

    def counted(self):
        built["verified"] += 1
        original(self)

    monkeypatch.setattr(AbelianExtension, "__post_init__", counted)
    assert extensions_equivalent(ext, ext) == Matrix.identity(4)
    assert built["verified"] == 0


def test_ideal_check_keeps_the_full_scan_where_it_is_not_antisymmetric():
    # {e1, v, v} = e1: the module image is no ternary ideal, and only the
    # slots (z, v_a, v_b) with a = b show it
    total = LyAlgebra(2, binary_from_sparse(2, {}), ternary_from_sparse(2, {(0, 1, 1, 0): 1}))
    with pytest.raises(InvalidInput, match="not a ternary-abelian ideal"):
        AbelianExtension(total, ReynoldsOperator(Matrix.identity(2), F(-1)),
                         Matrix.from_rows([[0], [1]]), Matrix.from_rows([[1, 0]]))


# ---------------------------------------------------------------------------
# the total of a block-form extension: at most one module index

def module_indices(tup, n: int) -> int:
    return sum(i >= n for i in tup)


def random_cocycle(rng, n: int, m: int) -> ExtensionCocycle:
    """A random degree-2 cone cochain, almost never a cocycle."""
    return ExtensionCocycle.from_cochain(unflatten_rly(2, n, m, [
        rand_fraction(rng) if rng.random() < 0.3 else 0 for _ in range(rly_dim(2, n, m))]))


def random_block_totals(rng, count: int):
    """(total, total operator, n): assembled extension data in block form
    on valid base data, over a module of dimension 1-3, most of it failing.
    The representation is the adjoint one, a perturbed one (failures with
    one module index) or a random one; the cochain is zero or random
    (failures with none)."""
    out = []
    while len(out) < count:
        which = len(out) % 4
        if which == 1:
            algebra, op, rep = random_reps(rng, 1)[0]
        else:
            algebra, op, rep = random_valid_triples(rng, 1)[0]
        n = algebra.dim
        if which == 2:
            rep = random_rep(rng, n, rng.randint(1, 3))
        m = rep.module_dim
        cocycle = random_cocycle(rng, n, m) if which == 3 or rng.random() < 0.3 \
            else ExtensionCocycle.zero(n, m)
        out.append((*assemble_extension(algebra, op, rep, cocycle), n))
    return out


def construction(total, total_op, n: int):
    """The text of the InvalidInput that building the block-form extension
    raises, or None when it is built."""
    try:
        AbelianExtension(total, total_op, *_canonical_arrows(n, total.dim - n))
    except InvalidInput as err:
        return str(err)
    return None


def test_block_form_scan_equals_full_scan(monkeypatch):
    rng = random.Random(89)
    witnesses, outcomes = Counter(), Counter()
    for total, total_op, n in random_block_totals(rng, 80):
        reduced = construction(total, total_op, n)
        with monkeypatch.context() as mp:
            mp.setattr(extension_mod, "verify_ly_axioms", verify_ly_axioms_by_orbits)
            full = construction(total, total_op, n)
        assert reduced == full
        report = verify_ly_axioms(total)
        assert report == verify_ly_axioms_by_orbits(total)
        witnesses.update(module_indices(c.witness, n) for c in report.failures())
        outcomes[None if full is None else full.split(":")[0]] += 1
    # failing checks with no module index in the witness and with one
    assert witnesses[0] >= 30 and witnesses[1] >= 30 and set(witnesses) == {0, 1}
    assert outcomes[None] >= 10 and outcomes["total algebra fails the axioms"] >= 30
    assert outcomes["total operator fails the Reynolds identities"] >= 5


@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1), (3,), (3, 1), (2, 2), (2, 2, 1)])
def test_ideal_keeps_the_orbit_tuples_with_one_module_index_at_most(shape):
    # the module image of a block-form total is an abelian ideal: in a term
    # of LY1-LY6 with two module arguments the lowest bracket above both has
    # two inputs in it, so a tuple with two module indices has residual 0,
    # and a failure of the identity of each shape is witnessed on a tuple
    # with one module index at most
    k = [SHAPES[name] for name in LY_NAMES].index(shape)
    witnesses = Counter()
    for total, _total_op, n in random_block_totals(random.Random(89), 80):
        _shape, fn, _den = orbit_ly_identities((total.binary,), (total.ternary,), 0)[k]
        for tup in orbit_tuples(total.dim, shape):
            if module_indices(tup, n) > 1:
                assert not any(fn(*tup).values()), tup
        check = verify_ly_axioms(total).checks[k]
        if not check.passed:
            witnesses[module_indices(check.witness, n)] += 1
    assert set(witnesses) <= {0, 1}


def moved_extension(total, total_op, n: int):
    """The arguments of an AbelianExtension: block-form extension data with
    the module moved in front of the base (basis index p becomes p + m mod
    n + m)."""
    big = total.dim
    m = big - n
    move = [(p + m) % big for p in range(big)]
    binary = {(move[a], move[b], move[c]): v for a in range(big) for b in range(big)
              for c, v in enumerate(total.binary[a][b]) if v}
    ternary = {(move[a], move[b], move[c], move[d]): v
               for a in range(big) for b in range(big) for c in range(big)
               for d, v in enumerate(total.ternary[a][b][c]) if v}
    op = [[0] * big for _ in range(big)]
    for a in range(big):
        for b in range(big):
            op[move[a]][move[b]] = total_op.matrix[a, b]
    return (LyAlgebra(big, binary_from_sparse(big, binary), ternary_from_sparse(big, ternary)),
            ReynoldsOperator(Matrix.from_rows(op, big), total_op.weight),
            Matrix.from_rows([[int(move[n + a] == i) for a in range(m)] for i in range(big)], m),
            Matrix.from_rows([[int(move[j] == i) for i in range(big)] for j in range(n)], big))


def test_an_extension_in_another_basis_keeps_the_full_scan(sl2):
    total, total_op = failing_sl2_total(sl2)
    # in block form the extension fails LY3 at the base triple (0, 1, 2),
    # printed 1-based
    assert construction(total, total_op, 3).startswith(
        "total algebra fails the axioms:\nLY1: pass\nLY2: pass\nLY3: FAIL at basis tuple (1, 2, 3)")
    moved, *rest = moved_extension(total, total_op, 3)
    with pytest.raises(InvalidInput) as err:
        AbelianExtension(moved, *rest)
    # pinned from the code that scanned every total in full, the witnesses
    # printed 1-based
    assert str(err.value) == (
        "total algebra fails the axioms:\nLY1: pass\nLY2: pass\n"
        "LY3: FAIL at basis tuple (4, 5, 6), residual (1, 0, 0, 0, 0, 0)\nLY4: pass\n"
        "LY5: FAIL at basis tuple (4, 5, 4, 6), residual (-2, 0, 0, 0, 0, 0)\n"
        "LY6: FAIL at basis tuple (4, 5, 4, 6, 4), residual (-4, 0, 0, 0, 0, 0)")
