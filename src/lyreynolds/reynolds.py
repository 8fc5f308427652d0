"""Reynolds operators of arbitrary weight on Lie-Yamaguti algebras.

A Reynolds operator of weight w is a linear self-map T with

    [Tx, Ty]     = T([Tx,y] + [x,Ty] + w [Tx,Ty])
    {Tx, Ty, Tz} = T({x,Ty,Tz} + {Tx,y,Tz} + {Tx,Ty,z} + 2w {Tx,Ty,Tz})

Weight 0 recovers Rota-Baxter operators; the identity map has weight -1.
Matrices act on coordinate columns: T e_j = sum_i matrix[i, j] e_i.

The terms T is applied to on the right are the descendant brackets
[x,y]_T and {x,y,z}_T, so one function (``_reynolds_terms``) writes both
sides of the identities, and the descendant algebra is its right-hand side
at order 0.  The verifiers, the descendant and the derivation check each
take one integer read (``algebra.IntegerRead``) of the structure constants,
the operator and the weight; a deformation is the same battery at order n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import (
    IntegerRead,
    LyAlgebra,
    _axiom_report,
    _morphism_failure,
    contract,
    dense_vector,
    verify_ly_axioms,
)
from .errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidReynolds,
    NotDerivation,
    ZeroScale,
)
from .linalg import Matrix, add_scaled, inverse
from .reporting import AxiomReport


@dataclass(frozen=True)
class ReynoldsOperator:
    matrix: Matrix
    weight: Fraction

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimMismatch("operator matrix must be square")
        object.__setattr__(self, "weight", Fraction(self.weight))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __call__(self, v):
        return self.matrix.apply(v)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _read(algebra: LyAlgebra, op: ReynoldsOperator) -> IntegerRead:
    """The integer read of an algebra and an operator on it."""
    return IntegerRead((algebra.binary,), (algebra.ternary,), (op.matrix,), op.weight)


def _reynolds_terms(read: IntegerRead, n: int):
    """Both sides of the weighted binary and ternary operator identities at
    order ``n`` of the series F, G and Tt of ``read``: one function per
    identity, mapping a basis tuple to ``(lhs, inner)`` with ``lhs`` the
    order-n coefficient of [Tx, Ty] (of {Tx, Ty, Tz}) and the right-hand
    side sum_i T_i(inner[i]).  At order 0, ``inner[0]`` is the descendant
    bracket [x, y]_T (or {x, y, z}_T).  Both are ``{coordinate: value}``
    dicts.

    The products are summed over three-part (plus one weighted four-part)
    and four-part (plus one five-part) splittings of n, each a
    :func:`contract` over nonzero structure constants and the sparse columns
    T_k e_x.  Each term is brought to one power of L by its coefficient: L^2
    on the terms with two factors fewer than the weighted one, whose
    coefficient L w is an integer.  The binary terms are then L^4 and the
    ternary ones L^5 times the exact ones.
    """
    dim = len(read.f[0])
    f, g, t_col = read.f, read.g, read.t_col
    square, lw = read.den ** 2, read.lw
    unit = [((x, 1),) for x in range(dim)]
    comps3, comps4, comps5 = (list(_compositions(n, parts)) for parts in (3, 4, 5))

    def image(table, vecs):
        out = {}
        contract(out, 1, table, vecs)
        return tuple(out.items())

    def binary(x, y):
        # F_j(T_k x, T_l y) for every j + k + l <= n, each computed once
        all_t = {(j, k, l): image(f[j], (t_col[k][x], t_col[l][y]))
                 for (_, j, k, l) in comps4}
        lhs = {}
        inner = [{} for _ in range(n + 1)]
        for (i, j, k) in comps3:
            add_scaled(lhs, square, all_t[i, j, k])
            contract(inner[i], square, f[j], (t_col[k][x], unit[y]))
            contract(inner[i], square, f[j][x], (t_col[k][y],))
        for (i, j, k, l) in comps4:
            add_scaled(inner[i], lw, all_t[j, k, l])
        return lhs, inner

    def ternary(x, y, z):
        # G_j(T_k x, T_l y, T_m z) for every j + k + l + m <= n, each once
        all_t = {(j, k, l, m): image(g[j], (t_col[k][x], t_col[l][y], t_col[m][z]))
                 for (_, j, k, l, m) in comps5}
        lhs = {}
        inner = [{} for _ in range(n + 1)]
        for (i, j, k, l) in comps4:
            add_scaled(lhs, square, all_t[i, j, k, l])
            contract(inner[i], square, g[j][x], (t_col[k][y], t_col[l][z]))
            contract(inner[i], square, g[j], (t_col[k][x], unit[y], t_col[l][z]))
            contract(inner[i], square, g[j], (t_col[k][x], t_col[l][y], unit[z]))
        for (i, j, k, l, m) in comps5:
            add_scaled(inner[i], 2 * lw, all_t[j, k, l, m])
        return lhs, inner

    return binary, ternary


def _reynolds_identities(read: IntegerRead, n: int):
    """The weighted binary and ternary operator identities at order ``n`` of
    the series of ``read``, as ``(shape, residual, den)`` triples (see
    algebra._axiom_report): both are antisymmetric in their first two slots.
    A residual is lhs - sum_i T_i(inner[i]) of :func:`_reynolds_terms`, one
    application of each T_i, at L^5 (binary) or L^6 (ternary)."""
    binary, ternary = _reynolds_terms(read, n)

    def minus_ts(lhs, inner):
        for i, v in enumerate(inner):
            contract(lhs, -1, read.t_col[i], (v.items(),))
        return lhs

    return (((2,), lambda x, y: minus_ts(*binary(x, y)), read.den ** 5),
            ((2, 1), lambda x, y, z: minus_ts(*ternary(x, y, z)), read.den ** 6))


def verify_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> AxiomReport:
    """Check the weighted binary identity on basis pairs and the weighted
    ternary identity on basis triples, one per orbit of the swap of the
    first two slots (see algebra.orbit_tuples)."""
    if op.dim != algebra.dim:
        raise DimMismatch("operator side != algebra dim")
    return _axiom_report(("reynolds-binary", "reynolds-ternary"),
                         _reynolds_identities(_read(algebra, op), 0),
                         algebra.dim)


@cache
def _require_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> None:
    report = verify_reynolds(algebra, op)
    if not report.ok:
        raise InvalidReynolds(report.describe())


def scale_weight(op: ReynoldsOperator, c) -> ReynoldsOperator:
    """(T, w) -> (c T, w / c): rescaling trades weight against the operator."""
    c = Fraction(c)
    if c == 0:
        raise ZeroScale("cannot rescale an operator by zero")
    return ReynoldsOperator(op.matrix.scale(c), op.weight / c)


@cache
def descendant_algebra(algebra: LyAlgebra, op: ReynoldsOperator) -> LyAlgebra:
    """The algebra L_T on the same space with the operator-deformed brackets

        [x,y]_T   = [Tx,y] + [x,Ty] + w [Tx,Ty]
        {x,y,z}_T = {x,Ty,Tz} + {Tx,y,Tz} + {Tx,Ty,z} + 2w {Tx,Ty,Tz}

    These are the terms T is applied to in the Reynolds identities, so the
    brackets are ``inner[0]`` of :func:`_reynolds_terms` at order 0, over
    the integer read of the structure constants, T and the weight: L^4 and
    L^5 times the exact brackets, divided back once per entry.  The
    construction re-validates everything it is supposed to satisfy: the
    result is again a Lie-Yamaguti algebra, T is again a Reynolds operator
    of the same weight on it, and T: L_T -> L is a morphism of both
    brackets.  A failure of any of these is an internal bug, not data.
    """
    _require_reynolds(algebra, op)
    n = algebra.dim
    read = _read(algebra, op)
    binary_terms, ternary_terms = _reynolds_terms(read, 0)
    binary = tuple(tuple(dense_vector(binary_terms(i, j)[1][0], n, read.den ** 4)
                         for j in range(n)) for i in range(n))
    ternary = tuple(
        tuple(tuple(dense_vector(ternary_terms(i, j, k)[1][0], n, read.den ** 5)
                    for k in range(n)) for j in range(n))
        for i in range(n))

    descendant = LyAlgebra(n, binary, ternary, algebra.labels)
    axioms = verify_ly_axioms(descendant)
    if not axioms.ok:
        raise InternalInconsistency(
            "descendant brackets fail the Lie-Yamaguti axioms:\n" + axioms.describe())
    again = verify_reynolds(descendant, op)
    if not again.ok:
        raise InternalInconsistency(
            "operator is not Reynolds on its own descendant:\n" + again.describe())
    bad = _morphism_failure(op.matrix, descendant, algebra)
    if bad is not None:
        kind = "binary" if len(bad) == 2 else "ternary"
        raise InternalInconsistency(
            f"T fails to be a {kind} morphism at ({','.join(map(str, bad))})")
    return descendant


def _derivation_identities(read: IntegerRead):
    """The Leibniz rule over the binary and the ternary bracket of the map D
    of ``read`` (its one operator map), as ``(shape, residual, den)``
    triples (see algebra._axiom_report): both are antisymmetric in their
    first two slots.  Each term is one structure constant and one D, so
    both residuals are L^2 times the exact ones."""
    b, t, d_col = read.f[0], read.g[0], read.t_col[0]
    unit = [((x, 1),) for x in range(len(b))]

    def binary(i, j):
        acc = {}
        contract(acc, 1, d_col, (b[i][j],))
        contract(acc, -1, b, (d_col[i], unit[j]))
        contract(acc, -1, b[i], (d_col[j],))
        return acc

    def ternary(i, j, k):
        acc = {}
        contract(acc, 1, d_col, (t[i][j][k],))
        contract(acc, -1, t, (d_col[i], unit[j], unit[k]))
        contract(acc, -1, t[i], (d_col[j], unit[k]))
        contract(acc, -1, t[i][j], (d_col[k],))
        return acc

    square = read.den ** 2
    return ((2,), binary, square), ((2, 1), ternary, square)


def derivation_check(algebra: LyAlgebra, dm: Matrix) -> AxiomReport:
    """Leibniz rule of dm over both brackets, on basis tuples increasing in
    their first two slots (see algebra.orbit_tuples)."""
    if dm.rows != algebra.dim or dm.cols != algebra.dim:
        raise DimMismatch("derivation matrix side != algebra dim")
    return _axiom_report(("derivation-binary", "derivation-ternary"),
                         _derivation_identities(IntegerRead(
                             (algebra.binary,), (algebra.ternary,), (dm,))),
                         algebra.dim)


def reynolds_from_derivation(algebra: LyAlgebra, dm: Matrix, weight) -> ReynoldsOperator:
    """Operator T = (D - weight Id)^{-1} built from a derivation D.

    The inverse exists only when D - weight Id is regular (SingularMatrix
    otherwise).  T is then a Reynolds operator of that weight: with u = Tx
    and v = Ty, the binary right-hand side is T([u, (D - w)v] + [(D - w)u, v]
    + w[u, v]) = T((D - w)[u, v]) = [u, v], and the ternary one gives
    T((D - w){u, v, s}) likewise.  Weight 0 gives the Rota-Baxter operator
    D^{-1}.  The output is re-validated anyway; a failure is an internal bug.
    """
    report = derivation_check(algebra, dm)
    if not report.ok:
        raise NotDerivation(report.describe())
    weight = Fraction(weight)
    shifted = dm - Matrix.identity(algebra.dim).scale(weight)
    t = inverse(shifted)  # raises SingularMatrix
    op = ReynoldsOperator(t, weight)
    check = verify_reynolds(algebra, op)
    if not check.ok:
        raise InternalInconsistency(
            "derivation-built operator fails the weighted identities:\n" + check.describe())
    return op
