"""Reynolds operators of arbitrary weight on Lie-Yamaguti algebras.

A Reynolds operator of weight w is a linear self-map T with

    [Tx, Ty]     = T([Tx,y] + [x,Ty] + w [Tx,Ty])
    {Tx, Ty, Tz} = T({x,Ty,Tz} + {Tx,y,Tz} + {Tx,Ty,z} + 2w {Tx,Ty,Tz})

Weight 0 recovers Rota-Baxter operators; the identity map has weight -1.
Matrices act on coordinate columns: T e_j = sum_i matrix[i, j] e_i.

The terms T is applied to on the right are the descendant brackets
[x,y]_T and {x,y,z}_T, so one function (``_reynolds_terms``) writes both
sides of the identities, and the descendant algebra is its right-hand side
at order 0.  Both sides come from the twist kernel (``algebra.twist``) that
also gives the induced representation; they and the Leibniz rule of the
derivation check are whole-tensor products taken one argument slot at a
time (``algebra.slot_product``), over one integer read
(``algebra.IntegerRead``) of the structure constants, the operator and the
weight.  A deformation is the same battery as a truncated series product.

The descendant is certified, not re-scanned, when T is invertible: the
Reynolds identity makes T: L_T -> L a morphism of both brackets, checked
on the built brackets as whole tensors, so L_T is the transport of L along
T, and it is a Lie-Yamaguti algebra with T Reynolds on it because L is one
with T Reynolds on it, as the input gate (``_require_reynolds``) checked.
A singular T gets the full scans of both.

An operator can carry a certificate that it is Reynolds on one algebra
object (``ReynoldsOperator._reynolds_on``, written by
:func:`_certify_reynolds`), as a tensor carries ``Tensor.antisymmetric``.
Only the extension layer writes it: on the change of basis of a verified
total, which keeps both identities, and on the totals it assembles over a
gated triple (L, T, V), the semidirect total and a total built from a
cocycle.  On those, a residual of the total's identities with a module
argument reads the semidirect cells alone (nu, psi and chi give module
values at base arguments, and V is an abelian ideal), so it is a residual
of the module-operator identities, and a residual at base arguments has
the residual of (L, T) as its base part; the input gate certified both.
What is left, the module part at base arguments, is linear in (nu, psi,
chi) and vanishes exactly when the lower component -partial chi - phi(nu,
psi) of the cone coboundary d_rly does, so a cocycle test certifies it.
The certificate is not a field and no constructor or loader takes it: an
operator read from a file, given in another basis or built by a caller is
scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .algebra import (
    IntegerRead,
    LyAlgebra,
    _axiom_report,
    _morphism_failure,
    dense_tensor,
    series_lincomb,
    slot_product,
    twist,
    verify_ly_axioms,
)
from .errors import (
    DimMismatch,
    InternalInconsistency,
    InvalidInput,
    InvalidReynolds,
    NotDerivation,
    ZeroScale,
)
from .linalg import Matrix, inverse, rank
from .reporting import AxiomReport


@dataclass(frozen=True)
class ReynoldsOperator:
    """A square matrix and a weight; the hash is computed once and kept.

    ``_reynolds_on`` is the certificate of :func:`_certify_reynolds`: the
    algebra object on which the operator's writer proved both weighted
    identities, None when none did.  It is not a field, so ``==`` and the
    hash ignore it."""

    matrix: Matrix
    weight: Fraction
    _reynolds_on = None

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimMismatch("operator matrix must be square")
        object.__setattr__(self, "weight", Fraction(self.weight))

    @cached_property
    def _hash(self) -> int:
        return hash((self.matrix, self.weight))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __call__(self, v):
        return self.matrix.apply(v)


def _read(algebra: LyAlgebra, op: ReynoldsOperator) -> IntegerRead:
    """The integer read of an algebra and an operator on it."""
    return IntegerRead((algebra.binary,), (algebra.ternary,), (op.matrix,), op.weight)


def _reynolds_terms(read: IntegerRead):
    """Both sides of the weighted binary and ternary operator identities at
    every order of the series F, G and Tt of ``read``, as one ``(A, inner)``
    pair of series per identity: A is F(Tx, Ty) (G(Tx, Ty, Tz)), the
    left-hand side, and inner the term T is applied to on the right.  At
    order 0, inner is the descendant bracket [x, y]_T (or {x, y, z}_T).

    Both come from :func:`algebra.twist` over every argument slot, inner =
    L^2 B + c L w A with c = 1 for F and c = 2 for G.  A is L^3 (L^4) and
    inner L^4 (L^5) times the exact series.
    """
    dim = read.dim
    square = read.den ** 2
    terms = []
    for tables, arity, c in ((read.f, 2, 1), (read.g, 3, 2)):
        shape = (dim,) * (arity + 1)
        a, b = twist(tables, shape, [(slot, read.t_row, None) for slot in range(arity)])
        terms.append((a, series_lincomb((square, b), (c * read.lw, a))))
    return terms


def _reynolds_identities(read: IntegerRead):
    """The weighted binary and ternary operator identities at every order of
    the series of ``read``: for each order n, the pair of ``(depth, acc,
    den)`` triples (see algebra._axiom_report), both antisymmetric in their
    first two slots.  A residual is L^2 A - T o inner of
    :func:`_reynolds_terms` at order n, at L^5 (binary) or L^6 (ternary)."""
    square = read.den ** 2
    residuals = [series_lincomb((square, a), (-1, slot_product(inner, read.t_col, 1, read.dim)))
                 for a, inner in _reynolds_terms(read)]
    return [((2, binary, read.den ** 5), (3, ternary, read.den ** 6))
            for binary, ternary in zip(*residuals)]


def verify_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> AxiomReport:
    """Check the weighted binary identity on basis pairs and the weighted
    ternary identity on basis triples, as whole tensors; the witness is the
    first failing tuple, which increases in its first two slots (see
    algebra._axiom_report)."""
    if op.dim != algebra.dim:
        raise DimMismatch("operator side != algebra dim")
    return _axiom_report(("reynolds-binary", "reynolds-ternary"),
                         _reynolds_identities(_read(algebra, op))[0],
                         algebra.dim)


def _certify_reynolds(algebra: LyAlgebra, op: ReynoldsOperator) -> ReynoldsOperator:
    """Write on ``op`` the certificate that both weighted identities hold
    on ``algebra``, this object and not an equal one, and return ``op``;
    its writers and why they may are in the module docstring."""
    object.__setattr__(op, "_reynolds_on", algebra)
    return op


@cache
def _require_reynolds(algebra: LyAlgebra, op: ReynoldsOperator | None) -> None:
    """The structure layer of the input gate: L satisfies LY1-LY6
    (InvalidInput), then T, when given, both weighted identities on it
    (InvalidReynolds); L is scanned once, whatever the operators."""
    if op is None:
        verify_ly_axioms(algebra).require(InvalidInput, "algebra fails the Lie-Yamaguti axioms")
    else:
        _require_reynolds(algebra, None)
        verify_reynolds(algebra, op).require(InvalidReynolds)


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
    brackets are ``inner`` of :func:`_reynolds_terms` at order 0, over the
    integer read of the structure constants, T and the weight: L^4 and L^5
    times the exact brackets, divided back once per entry.

    The result is checked, and a failure is an internal bug, not data.
    T: L_T -> L is always checked to be a morphism of both brackets, over
    the whole tensors.  With T invertible that makes L_T the transport of L
    along T, so its Lie-Yamaguti axioms and T being Reynolds on it follow
    from the same facts on L (checked first, by the input gate) and are not
    scanned again.  With T singular both are scanned on L_T as well.
    """
    _require_reynolds(algebra, op)
    n = algebra.dim
    read = _read(algebra, op)
    (_, inner2), (_, inner3) = _reynolds_terms(read)
    descendant = LyAlgebra(n, dense_tensor(inner2[0], 2, n, read.den ** 4),
                           dense_tensor(inner3[0], 3, n, read.den ** 5), algebra.labels)
    if rank(op.matrix) < n:
        verify_ly_axioms(descendant).require(
            InternalInconsistency, "descendant brackets fail the Lie-Yamaguti axioms")
        verify_reynolds(descendant, op).require(
            InternalInconsistency, "operator is not Reynolds on its own descendant")
    bad = _morphism_failure(op.matrix, descendant, algebra)
    if bad is not None:
        kind = "binary" if len(bad) == 2 else "ternary"
        raise InternalInconsistency(
            f"T fails to be a {kind} morphism at ({','.join(map(str, bad))})")
    return descendant


def _derivation_identities(read: IntegerRead):
    """The Leibniz rule over the binary and the ternary bracket of the map D
    of ``read`` (its one operator map), as ``(depth, acc, den)`` triples
    (see algebra._axiom_report): both are antisymmetric in their first two
    slots.  Each residual is D o F - F o1 D - F o2 D (D o G - G o1 D -
    G o2 D - G o3 D) as whole-tensor slot products, L^2 times the exact
    one."""
    dim = read.dim
    identities = []
    for depth, table in ((2, read.f[0]), (3, read.g[0])):
        series = [table]
        terms = [(-1, slot_product(series, read.t_row, dim ** (depth - slot), dim))
                 for slot in range(depth)]
        residual = series_lincomb((1, slot_product(series, read.t_col, 1, dim)), *terms)
        identities.append((depth, residual[0], read.den ** 2))
    return tuple(identities)


def derivation_check(algebra: LyAlgebra, dm: Matrix) -> AxiomReport:
    """Leibniz rule of dm over both brackets, as whole tensors; the witness
    is the first failing basis tuple (see algebra._axiom_report)."""
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
    derivation_check(algebra, dm).require(NotDerivation)
    weight = Fraction(weight)
    shifted = dm - Matrix.identity(algebra.dim).scale(weight)
    t = inverse(shifted)  # raises SingularMatrix
    op = ReynoldsOperator(t, weight)
    verify_reynolds(algebra, op).require(
        InternalInconsistency, "derivation-built operator fails the weighted identities")
    return op
