"""The sparse identity kernel against the dense verifiers it replaced.

Every verifier now reads its structure tensors and operators once as
nonzero entries and contracts over them (``algebra.contract``).  Each is
compared here with its dense version in ``tests/oracles.py`` on seeded
random inputs, most of them failing, so that witnesses and residuals are
compared and not only verdicts.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    _sl2,
    rand_fraction,
    rand_matrix,
    random_reps,
    random_structures,
    random_valid_triples,
)
from oracles import (
    LY_NAMES,
    apply_equivalence_dense,
    contract,
    dense_ly_report,
    derivation_check_dense,
    descendant_algebra_dense,
    morphism_failure_dense,
    verify_deformation_dense,
    verify_rep_dense,
    verify_reynolds_dense,
    verify_ly_axioms_dense,
    verify_reynolds_rep_dense,
)
from test_orbit_scan import moved_extension, random_block_totals, random_rep
from lyreynolds import (
    FormalIsomorphism,
    LyAlgebra,
    Matrix,
    ReynoldsOperator,
    TruncatedDeformation,
    abelian,
    apply_equivalence,
    derivation_check,
    descendant_algebra,
    from_lie_algebra,
    reynolds_from_derivation,
    semidirect_product,
    two_dim_example,
    verify_deformation,
    verify_ly_axioms,
    verify_rep,
    verify_reynolds,
    verify_reynolds_rep,
)
from lyreynolds.algebra import (
    IntegerRead,
    Tensor,
    _axiom_report,
    _ly_identities,
    _morphism_failure,
    apply_binary,
    apply_ternary,
    binary_from_sparse,
    dense_vector,
    ternary_from_sparse,
    zero_binary,
    zero_ternary,
)
from lyreynolds.errors import InternalInconsistency, SingularMatrix
from lyreynolds.linalg import add_scaled, inverse, rank, unit_vector

F = Fraction


def outcome(fn, *args):
    """The report of fn(*args) with its JSON, or the exception it raised."""
    try:
        report = fn(*args)
    except InternalInconsistency as err:
        return ("raised", str(err))
    return (report, report.to_json())


# ---------------------------------------------------------------------------
# the kernel

def sparse_table(tensor, depth: int):
    """The nonzero entries of a tensor with ``depth`` levels of basis
    indices above its vectors, as nested tuples of ``(index, value)``
    leaves: the table format :func:`contract` reads."""
    if depth == 0:
        return tuple((k, v) for k, v in enumerate(tensor) if v)
    return tuple(sparse_table(node, depth - 1) for node in tensor)


def test_contract_is_the_dense_multilinear_map():
    rng = random.Random(3)
    for _ in range(30):
        dim = rng.randint(1, 3)
        tensor = binary_from_sparse(dim, {
            (*sorted(rng.sample(range(dim), 2)), rng.randrange(dim)): rand_fraction(rng)
            for _ in range(rng.randint(0, 3))}) if dim > 1 else zero_binary(dim)
        x = tuple(rand_fraction(rng) for _ in range(dim))
        y = tuple(rand_fraction(rng) for _ in range(dim))
        c = rand_fraction(rng)
        acc = {}
        contract(acc, c, sparse_table(tensor, 2),
                 (sparse_table(x, 0), sparse_table(y, 0)))
        assert dense_vector(acc, dim) == tuple(c * v for v in apply_binary(tensor, x, y))


def test_contract_reads_a_matrix_by_its_columns_and_adds_leaves():
    m = Matrix.from_rows([[1, 2], [0, F(1, 2)]])
    cols = tuple(sparse_table(m.column(x), 0) for x in range(2))
    acc = {0: F(1)}
    contract(acc, 2, cols, (((0, F(1)), (1, F(4))),))
    assert dense_vector(acc, 2) == (F(1) + 2 * (1 + 8), F(4))
    add_scaled(acc, -1, ((1, F(4)),))
    assert dense_vector(acc, 2) == (F(19), F(0))
    assert all(type(v) is Fraction for v in dense_vector(acc, 2))


def test_integer_tables_clear_every_denominator():
    tensor = binary_from_sparse(2, {(0, 1, 0): F(1, 6), (0, 1, 1): F(-3, 4)})
    read = IntegerRead((tensor,))
    assert read.den == 12
    # positions in the radix (2, 2, 2): (0, 1, k) is 2 + k, (1, 0, k) is 4 + k
    assert read.f == ({2: 2, 3: -9, 4: -2, 5: 9},)
    # the weight's denominator and the maps' are cleared too
    read = IntegerRead((tensor,), Tt=(Matrix.from_rows([[0, F(1, 5)], [0, 0]]),),
                       weight=F(2, 7))
    assert read.den == 420 and read.lw == 120
    assert read.f == ({2: 70, 3: -315, 4: -70, 5: 315},)
    assert all(type(v) is int for v in read.f[0].values())
    assert read.t_row == ((((1, 84),), ()),)
    assert read.t_col == (((), ((0, 84),)),)


# ---------------------------------------------------------------------------
# representation and module-operator identities

def test_representation_verifiers_match_dense_oracles():
    # the second sampler's modules are wider than their algebras
    failed, wide = Counter(), Counter()
    triples = random_reps(random.Random(11), 120) + random_reps(random.Random(14), 60, 2)
    for algebra, op, rep in triples:
        for fn, oracle, args in ((verify_rep, verify_rep_dense, (algebra, rep)),
                                 (verify_reynolds_rep, verify_reynolds_rep_dense,
                                  (algebra, op, rep))):
            got, want = outcome(fn, *args), outcome(oracle, *args)
            assert got == want
            if got[0] != "raised":
                names = [c.name for c in got[0].failures()]
                failed.update(names)
                if rep.module_dim > algebra.dim:
                    wide.update(names)
    for name in ("theta-of-bracket", "d-rho-compat", "rho-of-bracket", "d-theta-compat",
                 "theta-of-ternary", "rho-module-op", "theta-module-op"):
        assert failed[name] >= 10, name
        assert wide[name] >= 3, name


def test_the_derived_identities_raise_as_the_dense_oracles_do():
    # on algebras that fail LY1-LY6 (and operators that are not Reynolds),
    # which the input gate keeps from the verifiers, a derived identity can
    # fail although the primary ones hold: the first such inputs of four
    # seeded streams, each raising the dense oracle's InternalInconsistency
    raised = set()
    for seed, index in ((0, 62), (1, 8), (5, 36), (6, 15)):
        rng = random.Random(seed)
        for algebra, op in random_structures(rng, 100)[:index + 1]:
            rep = random_rep(rng, algebra.dim, 1)
        for fn, oracle, args in ((verify_rep, verify_rep_dense, (algebra, rep)),
                                 (verify_reynolds_rep, verify_reynolds_rep_dense,
                                  (algebra, op, rep))):
            got = outcome(fn, *args)
            assert got == outcome(oracle, *args)
            if got[0] == "raised":
                raised.add(got[1].split(" fails at ")[0])
    assert raised == {"derived cyclic D identity", "derived D-D compatibility",
                      "derived D module-op identity"}


def test_valid_triples_pass_every_representation_identity():
    for algebra, op, rep in random_valid_triples(random.Random(12), 12):
        report = verify_rep(algebra, rep)
        assert report.ok and report["d-d-compat (derived)"].passed
        assert verify_reynolds_rep(algebra, op, rep)["d-module-op (derived)"].passed


# ---------------------------------------------------------------------------
# derivations

def test_derivation_check_matches_dense_oracle():
    rng = random.Random(13)
    failed = Counter()
    passed = 0
    for algebra, _op in random_structures(rng, 150):
        n = algebra.dim
        dm = rand_matrix(rng, n, n) if rng.random() < 0.8 else Matrix.zero(n, n)
        report = derivation_check(algebra, dm)
        oracle = derivation_check_dense(algebra, dm)
        assert report == oracle
        assert report.to_json() == oracle.to_json()
        failed.update(c.name for c in report.failures())
        passed += report.ok
    assert failed["derivation-binary"] >= 10 and failed["derivation-ternary"] >= 10
    assert passed >= 10


def ad(binary, x):
    """The inner derivation [x, -] of a Lie bracket, as a matrix."""
    n = len(binary)
    return Matrix.from_columns(
        [apply_binary(binary, x, unit_vector(n, j)) for j in range(n)], n)


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def derivations(draw):
    """(algebra, derivation) pairs over the catalogue of constructors."""
    family = draw(st.sampled_from(["abelian", "sl2", "lie2", "ly2"]))
    if family == "abelian":
        n = draw(st.integers(1, 3))
        algebra = abelian(n)
        dm = Matrix.from_rows(
            [[draw(fractions_st) for _ in range(n)] for _ in range(n)], n)
    elif family in ("sl2", "lie2"):
        if family == "sl2":
            algebra = _sl2()
        else:
            a, b = draw(fractions_st), draw(fractions_st)
            algebra = from_lie_algebra(
                binary_from_sparse(2, {(0, 1, 0): a, (0, 1, 1): b}))
        x = tuple(draw(fractions_st) for _ in range(algebra.dim))
        dm = ad(algebra.binary, x)
    else:
        # the derivations of [e1,e2] = e1, {e1,e2,e2} = e1 are (p q; 0 0)
        algebra = two_dim_example()
        dm = Matrix.from_rows([[draw(fractions_st), draw(fractions_st)], [0, 0]])
    return algebra, dm


@given(derivations(), fractions_st)
@settings(max_examples=120, deadline=None)
def test_reynolds_from_derivation_verifies_across_the_catalogue(pair, weight):
    algebra, dm = pair
    assert derivation_check(algebra, dm).ok
    shifted = dm - Matrix.identity(algebra.dim).scale(weight)
    try:
        expected = inverse(shifted)
    except SingularMatrix:
        assume(False)
    op = reynolds_from_derivation(algebra, dm, weight)
    assert op.matrix == expected
    assert op.weight == weight
    assert verify_reynolds(algebra, op).ok


# ---------------------------------------------------------------------------
# beyond dimension 3: random structures and semidirect totals of dims 4-6

def sparse_algebra(rng, dim: int) -> LyAlgebra:
    """A few random antisymmetric structure constants at index pairs i < j."""
    def entries(arity):
        return {(*sorted(rng.sample(range(dim), 2)),
                 *(rng.randrange(dim) for _ in range(arity - 2))): rand_fraction(rng, nonzero=True)
                for _ in range(rng.randint(1, 2 * dim))}
    return LyAlgebra(dim, binary_from_sparse(dim, entries(3)),
                     ternary_from_sparse(dim, entries(4)))


def semidirect_totals(rng, count: int):
    """Valid (total, operator) pairs L (+) V of dims 4-6, L a valid base of
    dim 2-3 acting on itself, the operator T (+) T_V: the shape of the
    extension catalogue."""
    totals = []
    while len(totals) < count:
        algebra, op, rep = random_valid_triples(rng, 1)[0]
        if algebra.dim >= 2:
            totals.append(semidirect_product(algebra, op, rep))
    return totals


def wide_inputs(rng, count: int):
    """(algebra, operator) pairs of dims 4-6, one in three valid (a
    semidirect total with its block operator), the rest failing: a total or
    a random sparse algebra with a dense random operator and weight."""
    pairs = []
    for k in range(count):
        if k % 3 == 0:
            pairs.append(semidirect_totals(rng, 1)[0])
            continue
        algebra = (semidirect_totals(rng, 1)[0][0] if k % 3 == 1
                   else sparse_algebra(rng, rng.randint(4, 6)))
        n = algebra.dim
        pairs.append((algebra, ReynoldsOperator(rand_matrix(rng, n, n), rand_fraction(rng))))
    return pairs


def inner_derivation(rng, algebra) -> Matrix:
    """A random combination of the maps {e_a, e_b, -}, a derivation of both
    brackets of a Lie-Yamaguti algebra (LY5 and LY6)."""
    n = algebra.dim
    acc = Matrix.zero(n, n)
    for _ in range(2):
        a, b = rng.sample(range(n), 2)
        acc = acc + Matrix.from_columns(list(algebra.ternary[a][b]), n).scale(
            rand_fraction(rng, nonzero=True))
    return acc


def test_reynolds_battery_beyond_dim3_matches_dense_oracle():
    rng = random.Random(31)
    failed = Counter()
    passed = Counter()
    for algebra, op in wide_inputs(rng, 30):
        report = verify_reynolds(algebra, op)
        oracle = verify_reynolds_dense(algebra, op)
        assert report == oracle
        assert report.to_json() == oracle.to_json()
        failed.update(c.name for c in report.failures())
        passed[algebra.dim, report.ok] += 1
    assert failed["reynolds-binary"] >= 10 and failed["reynolds-ternary"] >= 10, failed
    assert all(passed[dim, True] >= 2 for dim in (4, 6)), passed


def test_descendant_beyond_dim3_matches_dense_oracle():
    rng = random.Random(32)
    dims = Counter()
    for total, total_op in semidirect_totals(rng, 12):
        n = total.dim
        c = rand_fraction(rng, nonzero=True)
        scalar = ReynoldsOperator(Matrix.identity(n).scale(c), -1 / c)
        for op in (total_op, scalar):
            assert descendant_algebra(total, op) == descendant_algebra_dense(total, op)
            dims[n] += 1
    assert dims[4] >= 4 and dims[6] >= 4, dims


def test_derivation_check_beyond_dim3_matches_dense_oracle():
    rng = random.Random(33)
    failed = Counter()
    passed = 0
    for algebra, _op in wide_inputs(rng, 30):
        n = algebra.dim
        inner = inner_derivation(rng, algebra)
        for dm in (inner, rand_matrix(rng, n, n), inner + Matrix.from_rows(
                [[1 if (i, j) == (0, n - 1) else 0 for j in range(n)] for i in range(n)])):
            report = derivation_check(algebra, dm)
            oracle = derivation_check_dense(algebra, dm)
            assert report == oracle
            assert report.to_json() == oracle.to_json()
            failed.update(c.name for c in report.failures())
            passed += report.ok
    assert failed["derivation-binary"] >= 10 and failed["derivation-ternary"] >= 10, failed
    assert passed >= 10, passed


def test_morphism_failure_matches_dense_oracle():
    rng = random.Random(34)
    found = Counter()
    pairs = [pair for pair in random_structures(rng, 20) if verify_reynolds(*pair).ok]
    pairs += [t[:2] for t in random_valid_triples(rng, 10)] + semidirect_totals(rng, 8)
    for algebra, op in pairs:
        n = algebra.dim
        # descendant_algebra rejects an algebra that is not Lie-Yamaguti;
        # such a pair takes its L_T from the dense oracle
        descendant = descendant_algebra(algebra, op) if verify_ly_axioms(algebra).ok \
            else descendant_algebra_dense(algebra, op)
        ternary_only = LyAlgebra(n, zero_binary(n), algebra.ternary)
        cases = [(Matrix.identity(n), algebra, algebra),
                 (op.matrix, descendant, algebra),
                 (rand_matrix(rng, n, n), algebra, algebra),
                 (rand_matrix(rng, n, n), descendant, algebra),
                 (Matrix.identity(n).scale(2), ternary_only, ternary_only)]
        if n > 1:
            moved = Matrix.from_rows([[1 if (i, j) == (n - 1, 0) else 0 for j in range(n)]
                                      for i in range(n)])
            cases.append((op.matrix + moved, descendant, algebra))
        for phi, source, target in cases:
            bad = _morphism_failure(phi, source, target)
            assert bad == morphism_failure_dense(phi, source, target)
            found[None if bad is None else len(bad)] += 1
    assert found[None] >= 20 and found[2] >= 10 and found[3] >= 10, found


# ---------------------------------------------------------------------------
# deformations: the battery at higher order, and the transport

def random_deformation(rng, algebra, op, order: int, den=1) -> TruncatedDeformation:
    """Random antisymmetric higher coefficients over a valid base; sparse, so
    that some orders pass.  Every higher coefficient is divided by ``den``,
    or the order-k ones by ``den[k - 1]`` when it is a tuple."""
    n = algebra.dim
    dens = den if isinstance(den, tuple) else (den,) * order

    def sparse_entries(arity, den):
        if n < 2 or rng.random() < 0.3:
            return {}
        return {(*sorted(rng.sample(range(n), 2)), *(rng.randrange(n) for _ in range(arity - 2))):
                rand_fraction(rng, nonzero=True) / den for _ in range(rng.randint(1, 2))}

    fs, gs, ts = [algebra.binary], [algebra.ternary], [op.matrix]
    for den in dens:
        fs.append(binary_from_sparse(n, sparse_entries(3, den)) if n > 1 else zero_binary(n))
        gs.append(ternary_from_sparse(n, sparse_entries(4, den)) if n > 1 else zero_ternary(n))
        ts.append(rand_matrix(rng, n, n).scale(Fraction(1, den)) if rng.random() < 0.5
                  else Matrix.zero(n, n))
    return TruncatedDeformation(order, tuple(fs), tuple(gs), tuple(ts))


def fractional_iso(rng, n: int, order: int) -> FormalIsomorphism:
    """Random higher coefficients plus Id/5, so that 5 divides the common
    denominator of phi and of its truncated inverse psi (psi_1 = -phi_1)."""
    fifth = Matrix.identity(n).scale(Fraction(1, 5))
    return FormalIsomorphism(order, (Matrix.identity(n),) + tuple(
        rand_matrix(rng, n, n) + fifth for _ in range(order)))


def maps_denominator(maps) -> int:
    return lcm(*(v.denominator for m in maps for row in m.sparse for _, v in row))


def sl2_scalar_op():
    """(3/2) Id, a Reynolds operator of weight -2/3 on sl2."""
    return ReynoldsOperator(Matrix.identity(3).scale(Fraction(3, 2)), Fraction(-2, 3))


def test_deformation_battery_matches_dense_oracle():
    rng = random.Random(14)
    failed = Counter()
    # on 2-dim bases the cyclic identities hold on every basis triple, so a
    # dozen extra dim-3 bases make them fail too
    triples = random_valid_triples(rng, 30)
    triples += [t for t in random_valid_triples(rng, 60) if t[0].dim == 3][:12]
    for algebra, op, _rep in triples:
        order = rng.choice([1, 2, 3]) if algebra.dim < 3 else rng.choice([1, 2])
        deformation = random_deformation(rng, algebra, op, order)
        report = verify_deformation(algebra, op, deformation)
        oracle = verify_deformation_dense(algebra, op, deformation)
        assert report == oracle
        assert report.to_json() == oracle.to_json()
        for n, rep in enumerate(report.orders):
            failed.update((n > 0, c.name) for c in rep.failures())
    for name in ("cyclic-binary", "cyclic-mixed", "derivation-binary",
                 "derivation-ternary", "operator-binary", "operator-ternary"):
        assert failed[True, name] >= 5, name
    # orders 1, 2 and 3 over 1/7, 1/11 and 1/13: the one read of the series
    # is over a multiple of all three, so the order-n identities run at a
    # power of an L that differs from the one of orders 0..n alone.  Bases
    # from random_structures mostly fail at order 0, valid ones at order 1.
    bases = random_structures(rng, 10) + [t[:2] for t in random_valid_triples(rng, 10)]
    first_failure, wider = Counter(), 0
    for algebra, op in bases:
        deformation = random_deformation(rng, algebra, op, 3, den=(7, 11, 13))
        d = deformation

        def read_to(n):
            return IntegerRead(d.F[:n + 1], d.G[:n + 1], d.Tt[:n + 1], op.weight)

        whole = read_to(3).den
        wider += all(whole != read_to(n).den for n in range(3))
        report = verify_deformation(algebra, op, deformation)
        oracle = verify_deformation_dense(algebra, op, deformation)
        assert report == oracle
        assert report.to_json() == oracle.to_json()
        first_failure[next((n for n, r in enumerate(report.orders) if not r.ok), None)] += 1
    assert wider >= 10, wider
    assert first_failure[0] >= 5 and first_failure[1] >= 5, first_failure


def test_verify_deformation_reads_the_series_once(monkeypatch, sl2):
    reads = Counter()
    original = IntegerRead.__init__

    def counted(self, *args, **kwargs):
        reads["IntegerRead"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(IntegerRead, "__init__", counted)
    rng = random.Random(23)
    op = sl2_scalar_op()
    deformation = random_deformation(rng, sl2, op, 3, den=(7, 11, 13))
    report = verify_deformation(sl2, op, deformation)
    assert len(report.orders) == 4
    assert reads == {"IntegerRead": 1}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_apply_equivalence_matches_dense_oracle(order):
    rng = random.Random(15 + order)
    triples = random_valid_triples(rng, 10 if order == 2 else 6)
    triples.append((_sl2(), sl2_scalar_op(), None))
    fractional = Counter()
    for algebra, op, _rep in triples:
        n = algebra.dim
        # higher coefficients over 7, phi and psi over a multiple of 5: the
        # integer transport scales each of them, so none may be integral
        deformation = random_deformation(rng, algebra, op, order, den=7)
        iso = fractional_iso(rng, n, order)
        assert maps_denominator(iso.phi) % 5 == 0
        assert maps_denominator(iso.inverse().phi) % 5 == 0
        fractional.update(name for name, den in (
            ("F", IntegerRead(F=deformation.F).den),
            ("G", IntegerRead(G=deformation.G).den),
            ("T", maps_denominator(deformation.Tt))) if den % 7 == 0)
        for phi in (iso, iso.inverse(), FormalIsomorphism.identity(n, order)):
            assert apply_equivalence(deformation, phi) == apply_equivalence_dense(deformation, phi)
    assert min(fractional[name] for name in "FGT") >= 2, fractional


def test_apply_equivalence_round_trip_on_sl2_order3():
    rng = random.Random(19)
    deformation = random_deformation(rng, _sl2(), sl2_scalar_op(), 3, den=7)
    iso = fractional_iso(rng, 3, 3)
    moved = apply_equivalence(deformation, iso)
    assert moved != deformation
    assert apply_equivalence(moved, iso.inverse()) == deformation


# ---------------------------------------------------------------------------
# LY1-LY6: the cell-pair kernel against the dense battery

def kernel_ly_report(F, G, n: int):
    """LY1-LY6 at order n of the series F and G, as the engine reports
    them: the kernel over one read of the whole series."""
    return _axiom_report(LY_NAMES, _ly_identities(IntegerRead(F, G))[n], len(F[0]))


def invertible(rng, n: int) -> Matrix:
    while True:
        g = rand_matrix(rng, n, n)
        if rank(g) == n:
            return g


def gl_moved(tensors, depth: int, g: Matrix) -> tuple:
    """Each tensor with ``depth`` arguments in the basis g e_0, g e_1, ..:
    g o T o (g^-1 x .. x g^-1), from dense products."""
    n, g_inv = g.rows, inverse(g)
    args = [g_inv.column(a) for a in range(n)]
    apply = apply_binary if depth == 2 else apply_ternary
    return tuple(Tensor.of_indices(
        {idx + (k,): v for idx in product(range(n), repeat=depth)
         for k, v in enumerate(g.apply(apply(t, *(args[i] for i in idx))))}, n, depth, n)
        for t in tensors)


def nudged(rng, tensor, depth: int, antisymmetric: bool = True) -> Tensor:
    """tensor with a random nonzero amount added at one cell, and taken from
    the cell with its first two indices swapped when ``antisymmetric``;
    otherwise at any cell, that one alone."""
    n = len(tensor)
    if antisymmetric:
        idx = (*sorted(rng.sample(range(n), 2)), *(rng.randrange(n) for _ in range(depth - 1)))
    else:
        idx = tuple(rng.randrange(n) for _ in range(depth + 1))
    eps = rand_fraction(rng, nonzero=True)
    cells = dict(tensor.entries())
    cells[idx] = cells.get(idx, 0) + eps
    if antisymmetric:
        swapped = (idx[1], idx[0], *idx[2:])
        cells[swapped] = cells.get(swapped, 0) - eps
    return Tensor.of_indices(cells, n, depth, n)


def test_ly_kernel_matches_dense_battery_on_deformations():
    rng = random.Random(41)
    failed, orders_passed = Counter(), 0
    for k, (algebra, op, _rep) in enumerate(random_valid_triples(rng, 30)):
        n = algebra.dim
        d = random_deformation(rng, algebra, op, 3)
        if k % 2 and n > 1:
            F, G, m = list(d.F), list(d.G), rng.randint(1, 3)
            F[m] = nudged(rng, F[m], 2) if rng.random() < 0.5 else F[m]
            G[m] = nudged(rng, G[m], 3)
            d = TruncatedDeformation(3, tuple(F), tuple(G), d.Tt)
        report = verify_deformation(algebra, op, d)
        assert report == verify_deformation_dense(algebra, op, d)
        failed.update(c.name for r in report.orders for c in r.failures())
        series = [(d.F, d.G)]
        if n > 1:
            g = invertible(rng, n)
            series.append((gl_moved(d.F, 2, g), gl_moved(d.G, 3, g)))
        for F, G in series:
            for order in range(4):
                report = kernel_ly_report(F, G, order)
                oracle = dense_ly_report(F, G, order)
                assert report == oracle and report.to_json() == oracle.to_json()
                failed.update(c.name for c in report.failures())
                orders_passed += report.ok
    for name in ("LY3", "LY4", "LY5", "LY6", "cyclic-binary", "cyclic-mixed",
                 "derivation-binary", "derivation-ternary", "operator-binary",
                 "operator-ternary"):
        assert failed[name] >= 5, (name, failed)
    assert orders_passed >= 10, orders_passed


def test_ly_kernel_matches_dense_battery_on_block_totals():
    rng = random.Random(42)
    failed, dims = Counter(), Counter()
    for total, total_op, n in random_block_totals(rng, 16):
        # in block form, and moved with the module indices first
        for algebra in (total, moved_extension(total, total_op, n)[0]):
            report = verify_ly_axioms(algebra)
            oracle = verify_ly_axioms_dense(algebra)
            assert report == oracle and report.to_json() == oracle.to_json()
            failed.update(c.name for c in report.failures())
            dims[algebra.dim, report.ok] += 1
    for name in ("LY3", "LY4", "LY5", "LY6"):
        assert failed[name] >= 5, (name, failed)
    assert sum(v for (_, ok), v in dims.items() if ok) >= 5, dims


def test_ly_kernel_antisymmetry_checks_match_dense_battery():
    # LY1 and LY2 (antisymmetry-binary and -ternary in a deformation's
    # report) read F_n and G_n alone, and construction keeps both
    # antisymmetric, so they fail only on tensors built without that check.
    # LY3-LY6 are folded onto orbit tuples on the premise of it, so only
    # LY1 and LY2 are compared there.
    rng = random.Random(43)
    failed = Counter()
    for k, (algebra, op, _rep) in enumerate(random_valid_triples(rng, 30)):
        d = random_deformation(rng, algebra, op, 3)
        F, G = list(d.F), list(d.G)
        F[k % 4] = nudged(rng, F[k % 4], 2, antisymmetric=False)
        G[(k + 2) % 4] = nudged(rng, G[(k + 2) % 4], 3, antisymmetric=False)
        for order in range(4):
            report = kernel_ly_report(F, G, order)
            oracle = dense_ly_report(F, G, order)
            assert report.checks[:2] == oracle.checks[:2]
            failed.update((order > 0, c.name) for c in report.checks[:2] if not c.passed)
    for key in ((False, "LY1"), (False, "LY2"), (True, "LY1"), (True, "LY2")):
        assert failed[key] >= 5, (key, failed)
