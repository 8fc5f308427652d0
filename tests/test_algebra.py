import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyreynolds import (
    LyAlgebra,
    abelian,
    bracket2,
    bracket3,
    from_leibniz,
    from_lie_algebra,
    from_reductive_pair,
    two_dim_example,
    verify_ly_axioms,
    verify_reynolds,
)
from lyreynolds.algebra import (
    _morphism_failure,
    apply_binary,
    apply_ternary,
    binary_from_sparse,
    ternary_from_sparse,
    zero_binary,
    zero_ternary,
)
from lyreynolds.errors import (
    DimMismatch,
    InvalidStructure,
    NotLeibniz,
    NotLieAlgebra,
    NotReductive,
)
from lyreynolds.linalg import Matrix, inverse
from lyreynolds.reporting import AxiomReport, Check
from tests.conftest import rand_fraction, random_structures
from tests.oracles import leibniz_failure_dense, vec_add, vec_scale, vec_sub, zero_vector

F = Fraction
E1 = (F(1), F(0))
E2 = (F(0), F(1))


def test_two_dim_example_brackets(ly2):
    # the defining nonzero values
    assert bracket2(ly2, E1, E2) == E1
    assert bracket2(ly2, E2, E1) == (F(-1), F(0))
    assert bracket3(ly2, E1, E2, E2) == E1
    assert bracket3(ly2, E1, E2, E1) == (F(0), F(0))


def test_bracket_bilinear_expansion(ly2):
    # [2 e1 + e2, e2] = 2 [e1, e2] = 2 e1, expanded by hand
    assert bracket2(ly2, (F(2), F(1)), E2) == (F(2), F(0))


def test_bracket_antisymmetry_on_elements(ly2):
    x = (F(3, 2), F(-1))
    assert bracket2(ly2, x, x) == (F(0), F(0))
    assert bracket3(ly2, x, x, E2) == (F(0), F(0))


def test_bracket_dim_mismatch(ly2):
    with pytest.raises(DimMismatch):
        bracket2(ly2, (F(1),), E2)
    with pytest.raises(DimMismatch):
        bracket3(ly2, E1, E2, (F(1), F(2), F(3)))


def test_two_dim_example_passes_axioms(ly2):
    report = verify_ly_axioms(ly2)
    assert report.ok
    assert [c.name for c in report.checks] == ["LY1", "LY2", "LY3", "LY4", "LY5", "LY6"]


def test_abelian_passes_axioms():
    assert verify_ly_axioms(abelian(3)).ok
    assert verify_ly_axioms(abelian(0)).ok


def test_broken_ternary_fails_ly5_with_witness():
    # same binary, but {e1,e2,e2} = e2: LY5 at (e1,e2,e1,e2) gives
    # lhs {e1,e2,[e1,e2]} = 0 while rhs [e1,{e1,e2,e2}] = [e1,e2] = e1
    bad = LyAlgebra(2,
                    binary_from_sparse(2, {(0, 1, 0): 1}),
                    ternary_from_sparse(2, {(0, 1, 1, 1): 1}))
    report = verify_ly_axioms(bad)
    assert not report.ok
    ly5 = report["LY5"]
    assert not ly5.passed
    assert ly5.witness == (0, 1, 0, 1)
    assert ly5.residual == (F(-1), F(0))


def test_construction_rejects_broken_antisymmetry():
    good = zero_binary(2)
    broken = tuple(
        tuple((F(1), F(0)) if (i, j) == (0, 1) else good[i][j] for j in range(2))
        for i in range(2))
    with pytest.raises(InvalidStructure):
        LyAlgebra(2, broken, zero_ternary(2))
    sym_ternary = ternary_from_sparse(2, {})
    broken3 = list(list(list(row) for row in plane) for plane in sym_ternary)
    broken3[0][1][0] = (F(1), F(0))
    with pytest.raises(InvalidStructure):
        LyAlgebra(2, zero_binary(2), tuple(map(tuple, broken3)))


def test_sparse_builders_reject_inconsistent_pairs():
    with pytest.raises(InvalidStructure):
        binary_from_sparse(2, {(0, 1, 0): 1, (1, 0, 0): 1})
    with pytest.raises(InvalidStructure):
        ternary_from_sparse(2, {(0, 1, 1, 0): 1, (1, 0, 1, 0): 2})
    # consistent redundancy is fine
    binary_from_sparse(2, {(0, 1, 0): 1, (1, 0, 0): -1})


# ---------------------------------------------------------------------------
# constructors

def test_from_lie_algebra_two_dim():
    lie = binary_from_sparse(2, {(0, 1, 0): 1})
    a = from_lie_algebra(lie)
    # {e1,e2,e1} = [[e1,e2],e1] = 0 and {e1,e2,e2} = [[e1,e2],e2] = e1
    assert a.ternary[0][1][0] == (F(0), F(0))
    assert a.ternary[0][1][1] == E1
    assert verify_ly_axioms(a).ok


def test_from_lie_algebra_abelian():
    a = from_lie_algebra(zero_binary(3))
    assert a.ternary == zero_ternary(3)


def test_from_lie_algebra_sl2(sl2):
    assert verify_ly_axioms(sl2).ok
    # {e,f,h} = [[e,f],h] = [h,h] = 0, {h,e,e} = [[h,e],e] = 2[e,e] = 0
    assert bracket3(sl2, sl2.basis(1), sl2.basis(2), sl2.basis(0)) == (0, 0, 0)


def test_from_lie_algebra_rejects_non_jacobi():
    bad = binary_from_sparse(3, {(0, 1, 2): 1, (0, 2, 0): 1})
    with pytest.raises(NotLieAlgebra):
        from_lie_algebra(bad)


def test_from_leibniz_of_lie_doubles_binary(sl2):
    # a Lie bracket seen as a star product: [x,y] = x*y - y*x = 2(x*y)
    star = binary_from_sparse(2, {(0, 1, 0): 1})
    a = from_leibniz(star)
    assert a.binary[0][1] == (F(2), F(0))


def test_from_leibniz_zero():
    assert from_leibniz(zero_binary(2)).binary == zero_binary(2)


def test_from_leibniz_square_nilpotent():
    # e2 * e2 = e1: binary cancels and the ternary collapses, so the
    # resulting algebra is abelian
    star = [[(F(0), F(0)) for _ in range(2)] for _ in range(2)]
    star[1][1] = E1
    a = from_leibniz(tuple(map(tuple, star)))
    assert a.binary == zero_binary(2)
    assert a.ternary == zero_ternary(2)


def test_from_leibniz_nontrivial(leibniz3):
    assert verify_ly_axioms(leibniz3).ok
    assert leibniz3.binary[2][0] == (F(1), F(0), F(0))
    assert leibniz3.ternary == zero_ternary(3)


def test_from_leibniz_rejects_non_leibniz():
    # e1 * e3 = e1 breaks the left Leibniz identity at (e1, e3, e3)
    star = [[(F(0),) * 3 for _ in range(3)] for _ in range(3)]
    star[0][2] = (F(1), F(0), F(0))
    with pytest.raises(NotLeibniz):
        from_leibniz(tuple(map(tuple, star)))


def random_star(rng):
    """A star product on g + g for a Lie algebra g (sl2, or [e1, e2] = a e1
    + b e2), (x, u) * (y, v) = ([x, y], [x, v]), which is left Leibniz, read
    in a random basis half of the time; with one entry moved by a random
    nonzero value in two cases of three, when it mostly is not."""
    if rng.random() < 0.25:
        lie = {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}
    else:
        lie = {(0, 1, 0): rand_fraction(rng), (0, 1, 1): rand_fraction(rng)}
    n = 1 + max(max(idx) for idx in lie)
    cells = {}
    for (i, j, k), c in lie.items():
        for (a, b), v in (((i, j), c), ((j, i), -c)):
            cells[a, b, k] = cells[a, n + b, n + k] = F(v)
    dim = 2 * n
    # unit lower times unit upper triangular: an integer basis of det 1
    def triangular(keep):
        return Matrix.from_rows([[1 if r == c else rng.randint(-1, 1) if keep(r, c) else 0
                                  for c in range(dim)] for r in range(dim)])

    g = triangular(lambda r, c: r > c) @ triangular(lambda r, c: r < c) \
        if rng.random() < 0.5 else Matrix.identity(dim)
    star = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in cells.items():
        star[i][j][k] = v
    cols, ginv = g.transpose().to_rows(), inverse(g)
    moved = [[ginv.apply(apply_binary(star, cols[i], cols[j])) for j in range(dim)]
             for i in range(dim)]
    if rng.random() < 2 / 3:
        i, j, k = (rng.randrange(dim) for _ in range(3))
        moved[i][j] = tuple(v + rand_fraction(rng, nonzero=True) * (t == k)
                            for t, v in enumerate(moved[i][j]))
    return tuple(map(tuple, moved))


def test_from_leibniz_fails_at_the_first_triple_of_the_dense_loop():
    # the identity is checked over the cells; the first failing triple, and
    # whether there is one, are those of the loop over every basis triple
    rng = random.Random(2707)
    outcomes = Counter()
    for _ in range(30):
        star = random_star(rng)
        bad = leibniz_failure_dense(star)
        outcomes[bad is None] += 1
        if bad is None:
            assert verify_ly_axioms(from_leibniz(star)).ok
        else:
            with pytest.raises(NotLeibniz) as err:
                from_leibniz(star)
            assert str(err.value) == \
                f"left Leibniz identity fails at basis triple ({bad[0]},{bad[1]},{bad[2]})"
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_reductive_pair_trivial_split(sl2):
    zero_part = from_reductive_pair(sl2.binary, [0, 1, 2], [])
    assert zero_part.dim == 0
    whole = from_reductive_pair(sl2.binary, [], [0, 1, 2])
    # pi_N = 0 kills the ternary bracket; the binary is the Lie bracket
    assert whole.binary == sl2.binary
    assert whole.ternary == zero_ternary(3)
    assert verify_ly_axioms(whole).ok


def test_reductive_pair_sl2_cartan_split(sl2):
    m_part = from_reductive_pair(sl2.binary, [0], [1, 2])  # N = span(h)
    assert m_part.dim == 2
    # [e,f]_M = pi_M(h) = 0; {e,f,e}_M = [pi_N([e,f]), e] = [h,e] = 2e
    assert m_part.binary[0][1] == (F(0), F(0))
    assert m_part.ternary[0][1][0] == (F(2), F(0))
    assert verify_ly_axioms(m_part).ok


def test_reductive_pair_rejects_bad_split(sl2):
    with pytest.raises(NotReductive):
        from_reductive_pair(sl2.binary, [1], [0, 2])  # [e, h] leaves span(h, f)
    with pytest.raises(DimMismatch):
        from_reductive_pair(sl2.binary, [0], [1])


# ---------------------------------------------------------------------------
# multilinearity against an independent coordinate expansion

coords_st = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    min_size=2, max_size=2).map(tuple)


@given(coords_st, coords_st, coords_st)
@settings(max_examples=40, deadline=None)
def test_bracket_matches_coordinate_expansion(x, y, z):
    a = two_dim_example()
    expected2 = [F(0), F(0)]
    expected3 = [F(0), F(0)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected2[k] += x[i] * y[j] * a.binary[i][j][k]
            for k in range(2):
                for l in range(2):
                    expected3[l] += x[i] * y[j] * z[k] * a.ternary[i][j][k][l]
    assert bracket2(a, x, y) == tuple(expected2)
    assert bracket3(a, x, y, z) == tuple(expected3)


def test_apply_binary_on_general_tensor():
    tensor = binary_from_sparse(2, {(0, 1, 0): F(1, 2)})
    out = apply_binary(tensor, (F(2), F(0)), (F(0), F(3)))
    assert out == (F(3), F(0))


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3))
@settings(max_examples=25, deadline=None)
def test_constructor_outputs_always_pass_axioms(a, b):
    # every 2-dim antisymmetric bracket is a Lie algebra, and scaled members
    # of the verified Leibniz families stay Leibniz
    lie = from_lie_algebra(binary_from_sparse(2, {(0, 1, 0): a, (0, 1, 1): b}))
    assert verify_ly_axioms(lie).ok

    star2 = [[(F(0), F(0)) for _ in range(2)] for _ in range(2)]
    star2[1][1] = (a, F(0))
    assert verify_ly_axioms(from_leibniz(tuple(map(tuple, star2)))).ok

    star3 = [[(F(0),) * 3 for _ in range(3)] for _ in range(3)]
    star3[2][0] = (a, F(0), F(0))
    assert verify_ly_axioms(from_leibniz(tuple(map(tuple, star3)))).ok


# ---------------------------------------------------------------------------
# the identity battery against the written-out identities

def _oracle_report(n, identities) -> AxiomReport:
    checks = []
    for name, arity, fn in identities:
        check = Check(name, True)
        for tup in product(range(n), repeat=arity):
            r = fn(*tup)
            if any(r):
                check = Check(name, False, tup, r)
                break
        checks.append(check)
    return AxiomReport(tuple(checks))


def oracle_ly_axioms(algebra) -> AxiomReport:
    """LY1-LY6 written out on one algebra, one closure per identity."""
    n = algebra.dim
    b, t = algebra.binary, algebra.ternary

    def ly3(i, j, k):
        acc = zero_vector(n)
        for (x, y, z) in ((i, j, k), (k, i, j), (j, k, i)):
            acc = vec_add(acc, apply_binary(b, b[x][y], algebra.basis(z)))
            acc = vec_add(acc, t[x][y][z])
        return acc

    def ly4(i, j, k, a):
        acc = zero_vector(n)
        for (x, y, z) in ((i, j, k), (k, i, j), (j, k, i)):
            acc = vec_add(acc, apply_ternary(
                t, b[x][y], algebra.basis(z), algebra.basis(a)))
        return acc

    def ly5(a, c, i, j):
        lhs = apply_ternary(t, algebra.basis(a), algebra.basis(c), b[i][j])
        rhs = vec_add(apply_binary(b, t[a][c][i], algebra.basis(j)),
                      apply_binary(b, algebra.basis(i), t[a][c][j]))
        return vec_add(lhs, vec_scale(-1, rhs))

    def ly6(a, c, i, j, k):
        lhs = apply_ternary(t, algebra.basis(a), algebra.basis(c), t[i][j][k])
        rhs = apply_ternary(t, t[a][c][i], algebra.basis(j), algebra.basis(k))
        rhs = vec_add(rhs, apply_ternary(t, algebra.basis(i), t[a][c][j], algebra.basis(k)))
        rhs = vec_add(rhs, apply_ternary(t, algebra.basis(i), algebra.basis(j), t[a][c][k]))
        return vec_add(lhs, vec_scale(-1, rhs))

    return _oracle_report(n, (
        ("LY1", 2, lambda i, j: vec_add(b[i][j], b[j][i])),
        ("LY2", 3, lambda i, j, k: vec_add(t[i][j][k], t[j][i][k])),
        ("LY3", 3, ly3), ("LY4", 4, ly4), ("LY5", 4, ly5), ("LY6", 5, ly6)))


def oracle_reynolds(algebra, op) -> AxiomReport:
    """The two weighted identities written out with the brackets of T-images."""
    n = algebra.dim
    w = op.weight
    T = op.matrix
    t_img = [T.apply(algebra.basis(i)) for i in range(n)]

    def binary(i, j):
        lhs = bracket2(algebra, t_img[i], t_img[j])
        inner = vec_add(
            vec_add(bracket2(algebra, t_img[i], algebra.basis(j)),
                    bracket2(algebra, algebra.basis(i), t_img[j])),
            vec_scale(w, lhs))
        return vec_sub(lhs, T.apply(inner))

    def ternary(i, j, k):
        lhs = bracket3(algebra, t_img[i], t_img[j], t_img[k])
        inner = bracket3(algebra, algebra.basis(i), t_img[j], t_img[k])
        inner = vec_add(inner, bracket3(algebra, t_img[i], algebra.basis(j), t_img[k]))
        inner = vec_add(inner, bracket3(algebra, t_img[i], t_img[j], algebra.basis(k)))
        inner = vec_add(inner, vec_scale(2 * w, lhs))
        return vec_sub(lhs, T.apply(inner))

    return _oracle_report(n, (("reynolds-binary", 2, binary),
                              ("reynolds-ternary", 3, ternary)))


def test_verifiers_match_written_out_identities():
    # witnesses and residuals of every check, passing or not, on 240 seeded
    # pairs; every compatibility identity and both operator identities must
    # fail somewhere in the sample, so that each witness is compared
    failed = Counter()
    failing_pairs = 0
    pairs = random_structures(random.Random(7), 240)
    for algebra, op in pairs:
        reports = (verify_ly_axioms(algebra), verify_reynolds(algebra, op))
        oracles = (oracle_ly_axioms(algebra), oracle_reynolds(algebra, op))
        for report, oracle in zip(reports, oracles):
            assert report == oracle
            assert report.to_json() == oracle.to_json()
            failed.update(c.name for c in report.failures())
        failing_pairs += not all(r.ok for r in reports)
    assert failing_pairs > len(pairs) // 2
    for name in ("LY3", "LY4", "LY5", "LY6", "reynolds-binary", "reynolds-ternary"):
        assert failed[name] >= 10, name


def test_jacobi_failure_names_witness_and_residual():
    # [e1,e2] = e3, [e1,e3] = e1: at (e1,e2,e3) the cyclic sum is
    # [[e1,e2],e3] + [[e3,e1],e2] + [[e2,e3],e1] = 0 - [e1,e2] + 0 = -e3
    bad = binary_from_sparse(3, {(0, 1, 2): 1, (0, 2, 0): 1})
    with pytest.raises(NotLieAlgebra) as err:
        from_lie_algebra(bad)
    assert str(err.value) == (
        "Jacobi fails at basis triple (0,1,2): "
        "(Fraction(0, 1), Fraction(0, 1), Fraction(-1, 1))")


def test_morphism_failure_names_first_failing_tuple(ly2):
    assert _morphism_failure(Matrix.identity(2), ly2, ly2) is None
    # 2 Id: 2 [e1,e2] = 2 e1 but [2 e1, 2 e2] = 4 e1
    assert _morphism_failure(Matrix.identity(2).scale(2), ly2, ly2) == (0, 1)
    # diag(1, 2) on brackets [e1,e2] = 0, {e1,e2,e2} = e1: every binary pair
    # passes, then {e1, 2 e2, 2 e2} = 4 e1 differs from e1
    ternary_only = LyAlgebra(2, zero_binary(2), ternary_from_sparse(2, {(0, 1, 1, 0): 1}))
    diag = Matrix.from_rows([[1, 0], [0, 2]])
    assert _morphism_failure(diag, ternary_only, ternary_only) == (0, 1, 1)


# ---------------------------------------------------------------------------
# every index level of a tensor is checked against the dimension

def nested(shape):
    """Nested lists of zeros of the given lengths, level by level."""
    if not shape:
        return 0
    return [nested(shape[1:]) for _ in range(shape[0])]


def test_an_oversize_binary_table_is_rejected_not_truncated():
    b = nested((3, 3, 2))
    b[2][0], b[0][2] = [5, 5], [1, 1]
    with pytest.raises(DimMismatch, match="index level 1 of length 3, not 2"):
        LyAlgebra(2, b, zero_ternary(2))


def test_an_undersize_binary_table_is_rejected():
    with pytest.raises(DimMismatch, match="index level 1 of length 2, not 3"):
        LyAlgebra(3, zero_binary(2), zero_ternary(3))


# an index level of each tensor, or an entry, of the wrong length
@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 1, 2), (2, 2, 3, 2), (2, 2, 1, 2),
                                   (2, 3, 2, 2), (2, 1, 2, 2), (2, 2, 3), (2, 2, 1)])
def test_lyalgebra_checks_every_index_level_and_entry(shape):
    binary, ternary = zero_binary(2), zero_ternary(2)
    if len(shape) == 3:
        binary = nested(shape)
    else:
        ternary = nested(shape)
    with pytest.raises(DimMismatch, match="index level|entry of length"):
        LyAlgebra(2, binary, ternary)


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 1, 2)])
def test_from_constructors_check_every_index_level(shape):
    # the dimension is the length of the outer level; an inner one differs
    for build in (from_lie_algebra, from_leibniz):
        with pytest.raises(DimMismatch, match="index level 2"):
            build(nested(shape))
    with pytest.raises(DimMismatch, match="index level 2"):
        from_reductive_pair(nested(shape), [0], [1])
