import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest

from lyreynolds import (
    AbelianExtension,
    ExtensionCocycle,
    Matrix,
    ReynoldsOperator,
    Section,
    abelian,
    adjoint_rep,
    build_extension,
    cohomology_dims,
    d_rly,
    extensions_equivalent,
    extract_cocycle,
    extract_rep,
    is_cocycle,
    semidirect_product,
    verify_ly_axioms,
    verify_reynolds,
    zero_rep,
)
from lyreynolds.cohomology import (
    RlyCochain,
    cochain_from_matrix,
    differential_matrix,
    rly_dim,
    unflatten_rly,
)
from lyreynolds.errors import (
    DimMismatch,
    IncompatibleData,
    InvalidInput,
    NotCocycle,
    NotSection,
)
from lyreynolds.extension import (
    assemble_extension,
    base_data,
    class_representatives,
    to_block_form,
)
from lyreynolds.linalg import inverse, rank
from tests.conftest import identity_op, rand_fraction, rand_matrix, random_valid_triples
from tests.oracles import cocycle_space

F = Fraction


@pytest.fixture(scope="module")
def setup(ly2, tri_t):
    return ly2, tri_t, adjoint_rep(ly2, tri_t)


def kernel_cocycles(rng, algebra, op, rep, count, span=2):
    ker = cocycle_space(algebra, op, rep, "rly", 2)
    out = []
    width = len(ker.vectors[0]) if ker.vectors else 0
    for _ in range(count):
        coeffs = [rand_fraction(rng, span) for _ in ker.vectors]
        flat = [sum((c * v[i] for c, v in zip(coeffs, ker.vectors)), F(0))
                for i in range(width)]
        out.append(ExtensionCocycle.from_cochain(
            unflatten_rly(2, algebra.dim, rep.module_dim, flat)))
    return out


def random_non_cocycles(rng, algebra, op, rep, count):
    out = []
    n, m = algebra.dim, rep.module_dim
    from lyreynolds.cohomology import rly_dim

    while len(out) < count:
        flat = [rand_fraction(rng) for _ in range(rly_dim(2, n, m))]
        c = unflatten_rly(2, n, m, flat)
        if not is_cocycle(algebra, op, rep, "rly", c):
            out.append(ExtensionCocycle.from_cochain(c))
    return out


def test_zero_cocycle_builds_semidirect(setup):
    # the 2-dim fixture plus six sampled triples: all five sampler families,
    # with sl2, leibniz3 and a 3-dim abelian base as the dim-3 ones; kept
    # short because every dim-3 base verifies a 6-dim total twice
    for algebra, op, rep in [setup] + random_valid_triples(random.Random(21), 6):
        n, m = algebra.dim, rep.module_dim
        ext = build_extension(algebra, op, rep, ExtensionCocycle.zero(n, m))
        semi, semi_op = semidirect_product(algebra, op, rep)
        assert ext.total == semi
        assert ext.total_op == semi_op
        assert extract_cocycle(ext).to_cochain().is_zero()
        base, base_op, tv = base_data(ext)
        assert (base.binary, base.ternary) == (algebra.binary, algebra.ternary)
        assert base_op == op
        assert tv == rep.module_op
        assert extract_rep(ext) == rep


def test_each_extension_reads_its_base_data_once(setup, monkeypatch):
    """build_extension seeds its certified inputs into the read of its
    canonical section, so its readers extract and verify nothing; a twin
    built by hand from the same total and arrows extracts (L, T, T_V),
    verifies the representation and tests the cocycle once, over every
    reader and equivalence."""
    import lyreynolds.extension as extension

    algebra, op, rep = setup
    built = build_extension(algebra, op, rep,
                            kernel_cocycles(random.Random(44), algebra, op, rep, 1)[0])
    twin = AbelianExtension(built.total, built.total_op, built.inject, built.project)
    calls = Counter()
    body = extension._SectionRead.base.func

    def read_base(read):
        calls["base"] += 1
        return body(read)

    spy = cached_property(read_base)
    spy.__set_name__(extension._SectionRead, "base")
    monkeypatch.setattr(extension._SectionRead, "base", spy)
    for name in ("verify_reynolds_rep", "is_cocycle"):
        def counted(*args, _name=name, _fn=getattr(extension, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(extension, name, counted)

    for ext, once in ((built, 0), (twin, 1)):
        calls.clear()
        for _ in range(2):
            for fn in (extract_rep, extract_cocycle, base_data,
                       lambda e: extensions_equivalent(e, e),
                       lambda e: extensions_equivalent(e, built)):
                fn(ext)
        assert calls == Counter(dict.fromkeys(
            ("base", "verify_reynolds_rep", "is_cocycle"), once))
    assert extract_rep(twin) == extract_rep(built) == rep


def test_build_extension_round_trip_on_samples(setup):
    algebra, op, rep = setup
    rng = random.Random(41)
    for cocycle in kernel_cocycles(rng, algebra, op, rep, 10):
        ext = build_extension(algebra, op, rep, cocycle)
        assert verify_ly_axioms(ext.total).ok
        assert verify_reynolds(ext.total, ext.total_op).ok
        back = extract_cocycle(ext)
        assert back.nu == cocycle.nu
        assert back.psi == cocycle.psi
        assert back.chi == cocycle.chi


def test_extract_rep_recovers_input(setup):
    algebra, op, rep = setup
    rng = random.Random(42)
    for cocycle in kernel_cocycles(rng, algebra, op, rep, 3):
        ext = build_extension(algebra, op, rep, cocycle)
        assert extract_rep(ext) == rep
        base, base_op, tv = base_data(ext)
        assert base.binary == algebra.binary
        assert base.ternary == algebra.ternary
        assert base_op == op
        assert tv == rep.module_op


def test_extract_rep_section_independent(setup):
    algebra, op, rep = setup
    rng = random.Random(43)
    cocycle = kernel_cocycles(rng, algebra, op, rep, 1)[0]
    ext = build_extension(algebra, op, rep, cocycle)
    for _ in range(5):
        iota = rand_matrix(rng, 2, 2)
        shifted = Section(Matrix.from_rows(
            [[1, 0], [0, 1]] + iota.to_rows()))
        assert extract_rep(ext, shifted) == rep


def test_section_shift_changes_cocycle_by_coboundary(setup):
    algebra, op, rep = setup
    rng = random.Random(44)
    cocycle = kernel_cocycles(rng, algebra, op, rep, 1)[0]
    ext = build_extension(algebra, op, rep, cocycle)
    canonical = extract_cocycle(ext).to_cochain()
    for _ in range(10):
        iota = rand_matrix(rng, 2, 2)
        shifted_section = Section(Matrix.from_rows(
            [[1, 0], [0, 1]] + iota.to_rows()))
        shifted = extract_cocycle(ext, shifted_section).to_cochain()
        expected = d_rly(algebra, op, rep,
                         RlyCochain(cochain_from_matrix(iota), None))
        diff = shifted - canonical
        assert (diff.top - expected.top).is_zero()
        assert (diff.tail - expected.tail).is_zero()


def test_bad_section_rejected(setup):
    algebra, op, rep = setup
    ext = build_extension(algebra, op, rep, ExtensionCocycle.zero(2, 2))
    with pytest.raises(NotSection):
        extract_cocycle(ext, Section(Matrix.zero(4, 2)))
    with pytest.raises(NotSection):
        extract_rep(ext, Section(Matrix.identity(4)))


def test_non_cocycles_rejected_and_fail_verification(setup):
    algebra, op, rep = setup
    rng = random.Random(45)
    for cocycle in random_non_cocycles(rng, algebra, op, rep, 10):
        with pytest.raises(NotCocycle):
            build_extension(algebra, op, rep, cocycle)
        total, total_op = assemble_extension(algebra, op, rep, cocycle)
        ok = verify_ly_axioms(total).ok and verify_reynolds(total, total_op).ok
        assert not ok


def test_dim3_cocycle_that_does_not_assemble():
    # engine-found boundary of the classification statement: over an abelian
    # 3-dim base with zero coefficients, the pure psi cochain psi(e1,e2,e3)=v
    # is a 2-cocycle, yet its assembled total fails the cyclic axiom -- the
    # coboundary cannot see cyclic sums once basis triples stop repeating
    # entries.  The builder surfaces this loudly instead of returning a
    # broken extension.
    base = abelian(3)
    op = ReynoldsOperator(Matrix.zero(3, 3), F(1))
    rep = zero_rep(3, 1, Matrix.zero(1, 1))
    zv = (F(0),)
    nu = tuple(tuple(zv for _ in range(3)) for _ in range(3))
    psi = [[[zv] * 3 for _ in range(3)] for _ in range(3)]
    psi[0][1][2] = (F(1),)
    psi[1][0][2] = (F(-1),)
    cocycle = ExtensionCocycle(nu, tuple(tuple(tuple(p) for p in row) for row in psi),
                               Matrix.zero(1, 3))
    assert is_cocycle(base, op, rep, "rly", cocycle.to_cochain())
    total, _ = assemble_extension(base, op, rep, cocycle)
    report = verify_ly_axioms(total)
    assert not report.ok
    assert report["LY3"].witness == (0, 1, 2)
    with pytest.raises(InvalidInput):
        build_extension(base, op, rep, cocycle)


def greedy_class_representatives(algebra, op, rep):
    """Oracle: re-rank the image plus each kernel vector in turn, keeping
    the vectors that raise the rank."""
    d1 = differential_matrix(algebra, op, rep, "rly", 1)
    ker = cocycle_space(algebra, op, rep, "rly", 2)
    image_rank = rank(d1)
    span = [d1.column(j) for j in range(d1.cols)]
    chosen = []
    current = image_rank
    for vec in ker.vectors:
        trial = span + [list(vec)]
        r = rank(Matrix.from_columns(trial, d1.rows))
        if r > current:
            chosen.append(vec)
            span = trial
            current = r
    return tuple(chosen)


def test_class_representatives_match_greedy_oracle(setup, sl2):
    triples = [setup, (sl2, identity_op(3), adjoint_rep(sl2, identity_op(3)))]
    triples += random_valid_triples(random.Random(48), 20)
    for algebra, op, rep in triples:
        reps = class_representatives(algebra, op, rep)
        assert reps == greedy_class_representatives(algebra, op, rep)
        assert len(reps) == cohomology_dims(algebra, op, rep, "rly", 2).betti(2)


def test_equivalence_detects_classes(setup):
    algebra, op, rep = setup
    assert cohomology_dims(algebra, op, rep, "rly", 2).betti(2) == 2
    reps = class_representatives(algebra, op, rep)
    assert len(reps) == 2
    e_semi = build_extension(algebra, op, rep, ExtensionCocycle.zero(2, 2))
    e_one = build_extension(
        algebra, op, rep,
        ExtensionCocycle.from_cochain(unflatten_rly(2, 2, 2, reps[0])))
    e_two = build_extension(
        algebra, op, rep,
        ExtensionCocycle.from_cochain(unflatten_rly(2, 2, 2, reps[1])))

    assert extensions_equivalent(e_one, e_one) is not None
    assert extensions_equivalent(e_one, e_two) is None
    assert extensions_equivalent(e_one, e_semi) is None

    # shifting a representative by a coboundary keeps its class
    rng = random.Random(46)
    iota = rand_matrix(rng, 2, 2)
    shift = d_rly(algebra, op, rep, RlyCochain(cochain_from_matrix(iota), None))
    shifted_cocycle = ExtensionCocycle.from_cochain(
        unflatten_rly(2, 2, 2, reps[0]) + shift)
    e_shifted = build_extension(algebra, op, rep, shifted_cocycle)
    phi = extensions_equivalent(e_one, e_shifted)
    assert phi is not None
    # the equivalence restricts to the identity on both L and V blocks
    assert phi.column(0)[:2] == (F(1), F(0))
    assert all(phi[i, j] == (1 if i == j else 0)
               for i in range(2, 4) for j in range(2, 4))


def test_equivalence_requires_same_base(setup, ly2):
    algebra, op, rep = setup
    e_one = build_extension(algebra, op, rep, ExtensionCocycle.zero(2, 2))
    other_rep = zero_rep(2, 2, Matrix.zero(2, 2))
    e_two = build_extension(algebra, op, other_rep, ExtensionCocycle.zero(2, 2))
    with pytest.raises(IncompatibleData):
        extensions_equivalent(e_one, e_two)


def test_to_block_form_normalizes_scrambled_extension(setup):
    algebra, op, rep = setup
    rng = random.Random(47)
    cocycle = kernel_cocycles(rng, algebra, op, rep, 1)[0]
    ext = build_extension(algebra, op, rep, cocycle)

    while True:
        p = rand_matrix(rng, 4, 4)
        if rank(p) == 4:
            break
    pinv = inverse(p)
    from lyreynolds import LyAlgebra, bracket2, bracket3

    scrambled_binary = tuple(
        tuple(pinv.apply(bracket2(ext.total, p.column(i), p.column(j)))
              for j in range(4))
        for i in range(4))
    scrambled_ternary = tuple(
        tuple(
            tuple(pinv.apply(bracket3(ext.total, p.column(i), p.column(j),
                                      p.column(k)))
                  for k in range(4))
            for j in range(4))
        for i in range(4))
    scrambled = AbelianExtension(
        LyAlgebra(4, scrambled_binary, scrambled_ternary),
        ReynoldsOperator(pinv @ ext.total_op.matrix @ p, op.weight),
        pinv @ ext.inject,
        ext.project @ p)

    normalized = to_block_form(scrambled)
    assert normalized.inject == ext.inject
    assert normalized.project == ext.project
    assert extensions_equivalent(scrambled, ext) is not None


def test_extension_constructor_validates(setup):
    algebra, op, rep = setup
    good = build_extension(algebra, op, rep, ExtensionCocycle.zero(2, 2))
    with pytest.raises(InvalidInput):
        AbelianExtension(good.total, good.total_op, good.inject,
                         Matrix.zero(2, 4))  # project not surjective
    with pytest.raises(InvalidInput):
        AbelianExtension(good.total, good.total_op,
                         Matrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 0]]),
                         good.project)  # rank-deficient inject


def test_an_operator_of_another_size_than_the_algebra_is_rejected(setup):
    algebra, op, rep = setup
    cocycle = ExtensionCocycle.zero(2, 2)
    for size in (1, 3):
        wrong = ReynoldsOperator(Matrix.identity(size), op.weight)
        with pytest.raises(DimMismatch, match="operator does not match the algebra"):
            assemble_extension(algebra, wrong, rep, cocycle)


def test_a_cocycle_is_stored_as_the_cochain_it_is_given(setup, monkeypatch):
    import lyreynolds.extension as extension

    algebra, op, rep = setup
    rng = random.Random(43)
    drawn = [c.to_cochain() for c in kernel_cocycles(rng, algebra, op, rep, 3)
             + random_non_cocycles(rng, algebra, op, rep, 3)]
    for name in ("cochain2_from_tensors", "tensors_from_cochain2", "matrix_from_cochain"):
        monkeypatch.setattr(extension, name, None)  # no conversion is called
    for c in drawn:
        assert ExtensionCocycle.from_cochain(c).to_cochain() is c
    for n, m in ((2, 2), (3, 1), (1, 0)):
        assert ExtensionCocycle.zero(n, m).to_cochain() == RlyCochain.zero(2, n, m)


def test_a_cocycle_built_from_its_views_is_equal_to_it():
    # random degree-2 cochains, cocycles or not, over bases and modules of
    # several sizes
    rng = random.Random(44)
    for n, m in ((2, 2), (3, 2), (2, 3), (3, 1)):
        for _ in range(3):
            x = ExtensionCocycle.from_cochain(unflatten_rly(
                2, n, m, [rand_fraction(rng) for _ in range(rly_dim(2, n, m))]))
            again = ExtensionCocycle(x.nu, x.psi, x.chi)
            assert again == x and hash(again) == hash(x)
            assert again.to_cochain() == x.to_cochain()
            assert (again.alg_dim, again.mod_dim) == (x.alg_dim, x.mod_dim) == (n, m)
