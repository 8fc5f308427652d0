"""Orbit-reduced identity scans against the full scans they replace.

An identity antisymmetric within groups of consecutive slots is checked on
the basis tuples increasing within each group (``algebra.orbit_tuples``).
Here the reduced scan is compared with the full product on seeded random
antisymmetric structures, most of them failing, so that witnesses and
residuals are compared and not only verdicts; the premise of the
reduction, that every shaped residual negates under a swap within a group
and vanishes on a repeated index, is tested on its own.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest

from conftest import rand_fraction, rand_matrix, random_valid_triples
import lyreynolds.algebra as algebra_mod
import lyreynolds.representation as representation_mod
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
    _ly_identities,
    binary_from_sparse,
    orbit_tuples,
    ternary_from_sparse,
)
from lyreynolds.errors import InternalInconsistency, InvalidInput
from lyreynolds.extension import to_block_form
from lyreynolds.representation import _module_op_identities, _op_read, _rep_identities
from lyreynolds.reynolds import _derivation_identities, _reynolds_identities

F = Fraction

# the shape every identity declares; a shape of ones is the full scan
SHAPES = {
    "LY1": (1, 1), "LY2": (1, 1, 1), "LY3": (3,), "LY4": (3, 1), "LY5": (2, 2),
    "LY6": (2, 2, 1),
    "reynolds-binary": (2,), "reynolds-ternary": (2, 1),
    "derivation-binary": (2,), "derivation-ternary": (2, 1),
    "theta-of-bracket": (2, 1), "d-rho-compat": (2, 1), "rho-of-bracket": (1, 2),
    "d-theta-compat": (2, 1, 1), "theta-of-ternary": (1, 2, 1),
    "d-cyclic (derived)": (3,), "d-d-compat (derived)": (2, 2),
    "rho-module-op": (1,), "theta-module-op": (1, 1), "d-module-op (derived)": (2,),
}
LY_NAMES = ("LY1", "LY2", "LY3", "LY4", "LY5", "LY6")


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


def full_product(dim, shape):
    return product(range(dim), repeat=sum(shape))


def both_scans(monkeypatch, fn, *args):
    """fn(*args) with the orbit scan, then with every scan the full product."""
    reduced = outcome(fn, *args)
    with monkeypatch.context() as mp:
        for module in (algebra_mod, representation_mod):
            mp.setattr(module, "orbit_tuples", full_product)
        full = outcome(fn, *args)
    return reduced, full


def failures(result) -> list[str]:
    report = result[0]
    if report == "raised":
        return []
    if hasattr(report, "orders"):
        return [c.name for n, r in enumerate(report.orders) if n for c in r.failures()]
    return [c.name for c in report.failures()]


def test_reduced_scan_equals_full_scan(monkeypatch):
    rng = random.Random(61)
    failed = Counter()
    for algebra, op, rep, dm in random_inputs(rng, 60):
        for fn, args in ((verify_ly_axioms, (algebra,)),
                         (verify_reynolds, (algebra, op)),
                         (derivation_check, (algebra, dm)),
                         (verify_rep, (algebra, rep)),
                         (verify_reynolds_rep, (algebra, op, rep))):
            reduced, full = both_scans(monkeypatch, fn, *args)
            assert reduced == full, (fn.__name__, algebra)
            failed.update(failures(reduced))
    for name, shape in SHAPES.items():
        if max(shape) > 1 and "derived" not in name:
            assert failed[name] >= 5, name


@pytest.mark.parametrize("order", [1, 2, 3])
def test_reduced_scan_equals_full_scan_on_deformations(monkeypatch, order):
    rng = random.Random(70 + order)
    failed = Counter()
    dims = (2, 3, 4) if order < 3 else (2, 3)
    for algebra, op, _rep, _dm in random_inputs(rng, 20, dims):
        deformation = random_deformation(rng, algebra, op, order)
        reduced, full = both_scans(monkeypatch, verify_deformation, algebra, op, deformation)
        assert reduced == full
        failed.update(failures(reduced))
    for name in ("cyclic-binary", "cyclic-mixed", "derivation-binary",
                 "derivation-ternary", "operator-binary", "operator-ternary"):
        assert failed[name] >= 5, name


# ---------------------------------------------------------------------------
# the premise: antisymmetric within each group of the declared shape

def named_identities(rng, algebra, op, rep, dm, order: int):
    """Every shaped identity of the engine at one input, as (name, shape,
    residual) triples; the bracket and operator identities at ``order``,
    0 to 3, of a random order-3 deformation of (algebra, op)."""
    d = random_deformation(rng, algebra, op, 3)
    read = IntegerRead(d.F, d.G, d.Tt, op.weight)
    base = ((algebra.binary,), (algebra.ternary,))
    m = rep.module_dim
    for names, identities in ((LY_NAMES, _ly_identities(read, order)),
                              (("reynolds-binary", "reynolds-ternary"),
                               _reynolds_identities(read)[order]),
                              (("derivation-binary", "derivation-ternary"),
                               _derivation_identities(IntegerRead(*base, (dm,))))):
        for name, (shape, fn, _den) in zip(names, identities):
            yield name, shape, fn
    module_op, derived = _module_op_identities(_op_read(base[0], op, rep), algebra.dim, m)
    for name, shape, fn, _den in (
            *_rep_identities(IntegerRead(*base, rows=(rep.rho, rep.theta)), m),
            *module_op, derived()):
        yield name, shape, fn


def normal(residual):
    """A residual with its zero entries dropped: a {coordinate: value} dict,
    or a tuple of such rows for an operator on V."""
    if isinstance(residual, dict):
        return {k: v for k, v in residual.items() if v}
    return tuple(normal(row) for row in residual)


def negated(residual):
    if isinstance(residual, dict):
        return {k: -v for k, v in residual.items()}
    return tuple(negated(row) for row in residual)


def is_zero(residual) -> bool:
    return not residual if isinstance(residual, dict) else all(map(is_zero, residual))


def test_shaped_residuals_are_antisymmetric_within_groups():
    rng = random.Random(67)
    nonzero = Counter()
    seen = {}
    for algebra, op, rep, dm in random_inputs(rng, 24, (3, 4, 5)):
        if algebra.dim < 3:
            continue
        for name, shape, fn in named_identities(rng, algebra, op, rep, dm,
                                                rng.randint(0, 3)):
            seen[name] = shape
            for _ in range(6):
                # distinct within each group, where a residual can be nonzero
                tup = [i for k in shape for i in rng.sample(range(algebra.dim), k)]
                r = normal(fn(*tup))
                nonzero[name] += not is_zero(r)
                start = 0
                for k in shape:
                    for p, q in combinations(range(start, start + k), 2):
                        swapped = list(tup)
                        swapped[p], swapped[q] = swapped[q], swapped[p]
                        assert normal(fn(*swapped)) == negated(r), (name, tup, p, q)
                        repeated = list(tup)
                        repeated[q] = repeated[p]
                        assert is_zero(normal(fn(*repeated))), (name, repeated)
                    start += k
    assert seen == SHAPES
    for name, shape in SHAPES.items():
        if max(shape) > 1:
            assert nonzero[name] >= 5, name


# ---------------------------------------------------------------------------
# call counts

def test_ly6_is_evaluated_once_per_orbit(monkeypatch, sl2):
    calls = Counter()

    def counted(*args, _fn=_ly_identities):
        *head, (shape, fn, den) = _fn(*args)

        def ly6(*tup):
            calls[tup] += 1
            return fn(*tup)
        return (*head, (shape, ly6, den))

    op = ReynoldsOperator(Matrix.identity(3).scale(2), F(-1, 2))
    rep = adjoint_rep(sl2, op)
    monkeypatch.setattr(algebra_mod, "_ly_identities", counted)
    total, _total_op = semidirect_product(sl2, op, rep)
    assert total.dim == 6
    # C(6, 2) * C(6, 2) * 6 tuples of the 6^5 = 7776, each evaluated once
    assert sum(calls.values()) == 1350 and set(calls.values()) == {1}


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
