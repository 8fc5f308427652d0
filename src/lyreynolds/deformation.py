"""Truncated formal deformations of a Reynolds Lie-Yamaguti algebra.

A deformation to order N is a triple of coefficient lists (F_0..F_N,
G_0..G_N, T_0..T_N) whose base terms are the undeformed brackets and
operator.  Every axiom of the deformed structure is a power-series identity,
so it splits into one polynomial identity per order; order n only involves
coefficients up to n, which is why finite truncation loses nothing.

Deformation cochains live in the mapping-cone complex of the adjoint
representation: the infinitesimal of a valid order-1 deformation is a
2-cocycle there, equivalent deformations have cohomologous infinitesimals,
and a bounding infinitesimal can be removed by a first-order equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    IntegerRead,
    LyAlgebra,
    _axiom_report,
    _freeze,
    _ly_identities,
    _require_antisymmetric,
    dense_tensor,
    dense_vector,
    flat_table,
    transport,
    zero_binary,
    zero_ternary,
)
from .cohomology import (
    RlyCochain,
    coboundary_preimage,
    cochain2_from_tensors,
    cochain_from_matrix,
    matrix_from_cochain,
)
from .errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidInput,
    NotCoboundary,
    OrderMismatch,
    OrderTooLow,
    ShapeMismatch,
)
from .linalg import Matrix, add_product
from .reporting import OrderReport
from .representation import adjoint_rep
from .reynolds import ReynoldsOperator, _reynolds_identities


@dataclass(frozen=True)
class TruncatedDeformation:
    """Coefficients F_0..F_N, G_0..G_N, T_0..T_N of a deformation cut at N.

    Each F_n and G_n must be antisymmetric in its first two indices: a
    tensor certified so by its writer (the loader's, ``Tensor.antisymmetric``)
    is taken as it is, any other is scanned here once."""

    order: int
    F: tuple  # binary tensors
    G: tuple  # ternary tensors
    Tt: tuple[Matrix, ...]

    def __post_init__(self):
        if self.order < 1:
            raise OrderTooLow("truncation order must be at least 1")
        if not (len(self.F) == len(self.G) == len(self.Tt) == self.order + 1):
            raise ShapeMismatch("need exactly order+1 coefficients per series")
        dim = len(self.F[0])
        object.__setattr__(self, "F", tuple(_freeze(f, dim, 2) for f in self.F))
        object.__setattr__(self, "G", tuple(_freeze(g, dim, 3) for g in self.G))
        for n, (f, g) in enumerate(zip(self.F, self.G)):
            _require_antisymmetric(f, f"order {n}: binary coefficient not antisymmetric")
            _require_antisymmetric(g, f"order {n}: ternary coefficient not antisymmetric")
        for t in self.Tt:
            if (t.rows, t.cols) != (dim, dim):
                raise ShapeMismatch("operator coefficients must be dim x dim")

    @property
    def dim(self) -> int:
        return len(self.F[0])

    @classmethod
    def constant(cls, algebra: LyAlgebra, op: ReynoldsOperator,
                 order: int = 1) -> "TruncatedDeformation":
        """The undeformed structure padded with zero higher coefficients."""
        n = algebra.dim
        return cls.first_order(algebra, op, zero_binary(n), zero_ternary(n),
                               Matrix.zero(n, n), order)

    @classmethod
    def first_order(cls, algebra: LyAlgebra, op: ReynoldsOperator,
                    f1, g1, t1: Matrix, order: int = 1) -> "TruncatedDeformation":
        """Base structure plus prescribed order-1 coefficients (higher zero)."""
        n = algebra.dim
        zf, zg, zt = zero_binary(n), zero_ternary(n), Matrix.zero(n, n)
        return cls(order,
                   (algebra.binary, f1) + (zf,) * (order - 1),
                   (algebra.ternary, g1) + (zg,) * (order - 1),
                   (op.matrix, t1) + (zt,) * (order - 1))


@dataclass(frozen=True)
class FormalIsomorphism:
    """Truncated power series of linear maps with base coefficient Id."""

    order: int
    phi: tuple[Matrix, ...]

    def __post_init__(self):
        if self.order < 1:
            raise OrderTooLow("isomorphism order must be at least 1")
        if len(self.phi) != self.order + 1:
            raise ShapeMismatch("need exactly order+1 coefficient maps")
        dim = self.phi[0].rows
        for p in self.phi:
            if (p.rows, p.cols) != (dim, dim):
                raise ShapeMismatch("coefficient maps must be square of one size")
        if self.phi[0] != Matrix.identity(dim):
            raise InvalidInput("the base coefficient must be the identity")

    @property
    def dim(self) -> int:
        return self.phi[0].rows

    @classmethod
    def identity(cls, dim: int, order: int = 1) -> "FormalIsomorphism":
        return cls.first_order(Matrix.zero(dim, dim), order)

    @classmethod
    def first_order(cls, phi1: Matrix, order: int = 1) -> "FormalIsomorphism":
        dim = phi1.rows
        return cls(order, (Matrix.identity(dim), phi1)
                   + (Matrix.zero(dim, dim),) * (order - 1))

    def inverse(self) -> "FormalIsomorphism":
        """Truncated series inverse (Neumann recursion on the tail), computed
        once and kept.  The inverse keeps this series as its own inverse:
        inverses of truncated series are unique, so the truncated inverse is
        an involution.

        The recursion psi_s = -sum_{i=1..s} phi_i psi_{s-i} runs on integer
        rows over one denominator D of the tail: with P_i = D phi_i and
        Psi_s = D^s psi_s, Psi_s = sum_{i=1..s} -D^(i-1) P_i Psi_{s-i}, and
        psi_s is returned in integer form, Psi_s over D^s."""
        if "_inverse" not in self.__dict__:
            n = self.dim
            tail = IntegerRead(Tt=self.phi[1:])  # P_i = tail.t_row[i - 1], D = tail.den
            scaled = [tuple(((k, 1),) for k in range(n))]  # Psi_0 = Id
            psi = [Matrix.identity(n)]
            for s in range(1, self.order + 1):
                acc = [{} for _ in range(n)]
                for i in range(1, s + 1):
                    add_product(acc, -tail.den ** (i - 1), tail.t_row[i - 1], scaled[s - i])
                scaled.append(tuple(tuple(sorted(p for p in row.items() if p[1]))
                                    for row in acc))
                psi.append(Matrix._of_integer(n, n, tail.den ** s, scaled[s]))
            inverse = FormalIsomorphism(self.order, tuple(psi))
            object.__setattr__(self, "_inverse", inverse)
            object.__setattr__(inverse, "_inverse", self)
        return self._inverse


def _require_base(algebra: LyAlgebra, op: ReynoldsOperator,
                  deformation: TruncatedDeformation) -> None:
    """The deformation lives on the algebra's space, the operator too, and
    its base coefficients are the algebra's brackets and the operator."""
    n_dim = algebra.dim
    if deformation.dim != n_dim:
        raise ShapeMismatch("deformation tensors do not match the algebra dimension")
    if op.dim != n_dim:
        raise DimMismatch("operator does not match the algebra dimension")
    if deformation.F[0] != algebra.binary or deformation.G[0] != algebra.ternary \
            or deformation.Tt[0] != op.matrix:
        raise InvalidInput("base coefficients must equal the undeformed structure")


def verify_deformation(algebra: LyAlgebra, op: ReynoldsOperator,
                       deformation: TruncatedDeformation) -> OrderReport:
    """Check every axiom of the deformed structure order by order.

    At each order n the report covers: antisymmetry of the coefficients, the
    four bracket compatibility identities summed over the coefficient
    splittings i + j = n, in one pass over pairs of nonzero cells (see
    algebra._ly_identities), and the two weighted operator identities, whose
    residuals of every order come from one computation of series products
    taken one argument slot at a time.  Each check's witness is its least
    nonzero position, the first failing basis tuple.  Order 0 is the battery
    of the undeformed verifiers under other names: LY1-LY6 are the six
    bracket checks, and reynolds-binary/-ternary are operator-binary/
    -ternary.  The whole series is read once, over one common denominator.
    """
    _require_base(algebra, op, deformation)
    read = IntegerRead(deformation.F, deformation.G, deformation.Tt, op.weight)
    names = ("antisymmetry-binary", "antisymmetry-ternary", "cyclic-binary",
             "cyclic-mixed", "derivation-binary", "derivation-ternary",
             "operator-binary", "operator-ternary")
    return OrderReport(tuple(
        _axiom_report(names, ly + reynolds, algebra.dim)
        for ly, reynolds in zip(_ly_identities(read), _reynolds_identities(read))))


def infinitesimal(deformation: TruncatedDeformation) -> RlyCochain:
    """The degree-2 cone cochain ((F_1, G_1), T_1) with adjoint coefficients."""
    if deformation.order < 1:
        raise OrderTooLow("need at least an order-1 deformation")
    n = deformation.dim
    top = cochain2_from_tensors(n, n, deformation.F[1], deformation.G[1])
    tail = cochain_from_matrix(deformation.Tt[1])
    return RlyCochain(top, tail)


def apply_equivalence(deformation: TruncatedDeformation,
                      iso: FormalIsomorphism) -> TruncatedDeformation:
    """Transport a deformation along a formal isomorphism phi:

        F' = phi o F o (phi^{-1} (x) phi^{-1}),  likewise for G,
        T' = phi o T o phi^{-1},

    with the truncated inverse psi of phi.  Each series X is precomposed
    with psi in one argument slot at a time (X'_s = sum_{b+c=s} X_b o_slot
    psi_c) and then composed with phi the same way (:func:`algebra.transport`),
    over integer reads: the series, psi and phi each have their
    own common denominator, and every transported term has one factor of X,
    one of phi and one of psi per slot, so one division per output entry
    undoes the scale.  The identity isomorphism is the identity transport,
    and transports by phi and by phi.inverse() cancel up to the truncation
    order.
    """
    if iso.order != deformation.order:
        raise OrderMismatch("isomorphism and deformation orders differ")
    if iso.dim != deformation.dim:
        raise DimMismatch("isomorphism acts on a different space")
    n = deformation.dim
    # X(.., psi e_x, ..) = sum_y psi[y][x] X(.., e_y, ..): an entry at
    # argument y moves to each x of row y of psi.  phi(v) = sum_l v_l phi e_l:
    # an entry at output coordinate l moves to each coordinate of column l.
    # T is read by its columns, so T' is written by its transpose.
    read = IntegerRead(deformation.F, deformation.G, deformation.Tt)
    psi = IntegerRead(Tt=iso.inverse().phi)
    phi = IntegerRead(Tt=iso.phi)
    scale = read.den * phi.den
    # psi moves both leading slots of an antisymmetric series alike, so
    # every transported order is antisymmetric: certified, not scanned
    new_f = tuple(dense_tensor(acc, 2, n, scale * psi.den ** 2, antisymmetric=True)
                  for acc in transport(read.f, 2, n, psi.t_row, phi.t_col))
    new_g = tuple(dense_tensor(acc, 3, n, scale * psi.den ** 3, antisymmetric=True)
                  for acc in transport(read.g, 3, n, psi.t_row, phi.t_col))
    new_t = tuple(Matrix(n, n, dense_vector(acc, n * n, scale * psi.den)).transpose()
                  for acc in transport([flat_table(t, (n, n)) for t in read.t_col], 1, n,
                                       psi.t_row, phi.t_col))
    return TruncatedDeformation(deformation.order, new_f, new_g, new_t)


def trivialize_first_order(algebra: LyAlgebra, op: ReynoldsOperator,
                           deformation: TruncatedDeformation
                           ) -> tuple[FormalIsomorphism, TruncatedDeformation]:
    """Remove the order-1 terms of a deformation whose infinitesimal bounds.

    Solves d(phi_1) = infinitesimal in the cone complex of the adjoint
    representation (NotCoboundary when there is no solution), then
    transports along the series with coefficients (Id, +phi_1): that is the
    truncated inverse of the returned isomorphism Id - phi_1 t, which maps
    the transported deformation back to the input.  The transported order-1
    coefficients are verified to vanish.  The deformation must be one of
    the given algebra and operator, as for :func:`verify_deformation`.
    """
    _require_base(algebra, op, deformation)
    rep = adjoint_rep(algebra, op)
    target = infinitesimal(deformation)
    pre = coboundary_preimage(algebra, op, rep, "rly", target)
    if pre is None:
        raise NotCoboundary(
            "the infinitesimal is not a coboundary; first-order trivialization "
            "is obstructed")
    phi1 = matrix_from_cochain(pre.top)
    iso_back = FormalIsomorphism.first_order(phi1.scale(-1), deformation.order)
    transported = apply_equivalence(deformation, iso_back.inverse())
    zt = Matrix.zero(algebra.dim, algebra.dim)
    if transported.F[1] != zero_binary(algebra.dim) \
            or transported.G[1] != zero_ternary(algebra.dim) \
            or transported.Tt[1] != zt:
        raise InternalInconsistency(
            "transport by the bounding cochain failed to clear the order-1 terms")
    return iso_back, transported
