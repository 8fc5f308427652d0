"""Abelian extensions of a Reynolds Lie-Yamaguti algebra by a module.

An extension is a total algebra-with-operator sitting in a short exact
sequence V >-> L_hat ->> L whose kernel is an operator-stable abelian
ideal, which the constructor checks.  In the basis s(e_1..e_n),
i(v_1..v_m) of a section s the total brackets and operator split into
blocks: the base data (L, T), the representation (rho, theta, T_V) and a
degree-2 cone cochain (nu, psi, chi).  :func:`assemble_extension` writes
those blocks, and a ``_SectionRead``, the total in the basis of one
section, slices them back out, each on first use.  Extensions are compared
through their cocycle classes, never by searching over isomorphisms.

Over a gated triple (L, T, V), the assembled operator is Reynolds on the
assembled total exactly when the lower component -partial chi - phi(nu,
psi) of d_rly(nu, psi, chi) vanishes: a residual with a module argument
reads the semidirect cells alone, and is one of the module-operator
identities; a residual at base arguments has the residual of (L, T) as
its base part; the input gate certified both, and the module part at base
arguments is that lower component (see :mod:`lyreynolds.reynolds`).  The
upper component delta(nu, psi) does not carry LY1-LY6 of the total,
though: the cone misses the cyclic conditions, so on bases of dim >= 3 a
cocycle can assemble into a total that fails LY3 or LY4.  So
:func:`build_extension` certifies the Reynolds half after its cocycle test
(``ReynoldsOperator._reynolds_on``), and the constructor scans LY1-LY6.

Each extension reads its canonical section once, at construction, and
keeps that read; the readers with no section use the block-form copy's.
:func:`build_extension` seeds its read with its certified inputs, so its
extensions are never read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    IntegerRead,
    LyAlgebra,
    Tensor,
    _morphism_failure,
    dense_tensor,
    transport,
    verify_ly_axioms,
)
from .cohomology import (
    RlyCochain,
    coboundary_preimage,
    cochain2_from_tensors,
    cochain_from_matrix,
    differential_matrix,
    is_cocycle,
    matrix_from_cochain,
    tensors_from_cochain2,
)
from .errors import (
    DimMismatch,
    IncompatibleData,
    InternalInconsistency,
    InvalidInput,
    MissingModuleOp,
    NotCocycle,
    NotSection,
)
from .linalg import (
    Matrix,
    Vector,
    from_cells,
    inverse,
    kernel_basis,
    pivot_columns,
    rank,
    right_inverse,
)
from .representation import (
    Representation,
    check_inputs,
    semidirect_cells,
    verify_reynolds_rep,
)
from .reynolds import ReynoldsOperator, _certify_reynolds, verify_reynolds


@dataclass(frozen=True, init=False, repr=False)
class ExtensionCocycle:
    """Defect data of a sectioned extension, stored as its degree-2 cone
    cochain: nu[i][j] and psi[i][j][k] are V-valued (antisymmetric in i, j),
    chi is the operator defect L -> V.  The three are views of the cochain,
    built on first use; ``==`` and the hash are the cochain's."""

    _cochain: RlyCochain

    def __init__(self, nu, psi, chi: Matrix):
        n = len(nu)
        if chi.cols != n:
            raise DimMismatch("chi must map the base algebra into the module")
        # the cochain conversion normalizes entries and enforces antisymmetry
        object.__setattr__(self, "_cochain", RlyCochain(
            cochain2_from_tensors(n, chi.rows, nu, psi), cochain_from_matrix(chi)))

    def __repr__(self):
        return f"ExtensionCocycle(nu={self.nu!r}, psi={self.psi!r}, chi={self.chi!r})"

    @cached_property
    def _tensors(self) -> tuple:
        return tensors_from_cochain2(self._cochain.top)

    nu = property(lambda self: self._tensors[0])
    psi = property(lambda self: self._tensors[1])

    @cached_property
    def chi(self) -> Matrix:
        return matrix_from_cochain(self._cochain.tail)

    @property
    def alg_dim(self) -> int:
        return self._cochain.top.alg_dim

    @property
    def mod_dim(self) -> int:
        return self._cochain.top.mod_dim

    def to_cochain(self) -> RlyCochain:
        return self._cochain

    @classmethod
    def from_cochain(cls, c: RlyCochain) -> "ExtensionCocycle":
        if c.degree != 2:
            raise DimMismatch("extension cocycles are degree-2 cone cochains")
        cocycle = object.__new__(cls)
        object.__setattr__(cocycle, "_cochain", c)
        return cocycle

    @classmethod
    def zero(cls, alg_dim: int, mod_dim: int) -> "ExtensionCocycle":
        return cls.from_cochain(RlyCochain.zero(2, alg_dim, mod_dim))


@dataclass(frozen=True)
class Section:
    """A right inverse of the projection, L -> L_hat."""

    map: Matrix


@dataclass(frozen=True)
class AbelianExtension:
    """Total structure plus the two arrows of the short exact sequence.

    Construction checks exactness (inject injective, project surjective,
    project o inject = 0, dimensions adding up), the module image being an
    abelian ideal that T_hat maps into itself, and the total passing the
    algebra and operator verifiers; an operator certified Reynolds on this
    total (``ReynoldsOperator._reynolds_on``, written by
    :func:`build_extension`, :func:`semidirect_product` and ``_block_copy``
    only) is taken without its scan.  Arrows equal to the block maps of
    :func:`_canonical_arrows` are exact by that equality, and the read of
    their section [I; 0] is the total's own tensors; other arrows take the
    ranks, the product and one change of basis.  That read is kept as
    ``_canonical``, not a field, so ``==`` and the hash ignore it.  In it,
    [v, w], {z, v, w} and {v, w, z} must vanish and [x, v], {x, y, v} and
    {v, x, y} have no base part, for x, y in L, v, w in V and any z; so no
    LY1-LY6 term with two module arguments has a pair of nonzero cells,
    which is all the check of the total reads (see algebra._ly_identities).
    Compatibility with a given base (L, T) is checked by the operations
    that read it.
    """

    total: LyAlgebra
    total_op: ReynoldsOperator
    inject: Matrix
    project: Matrix

    def __post_init__(self):
        big = self.total.dim
        if self.total_op.dim != big:
            raise DimMismatch("total operator does not act on the total algebra")
        if self.inject.rows != big or self.project.cols != big:
            raise DimMismatch("inject/project must use total coordinates")
        n, m = self.project.rows, self.inject.cols
        if n + m != big:
            raise InvalidInput("base and module dimensions must add to the total")
        block = (self.inject, self.project) == _canonical_arrows(n, m)
        object.__setattr__(self, "_block_form", block)
        if not block:
            if rank(self.inject) != m:
                raise InvalidInput("inject is not injective")
            if rank(self.project) != n:
                raise InvalidInput("project is not surjective")
            if not (self.project @ self.inject).is_zero():
                raise InvalidInput("project o inject != 0")
        tensors = (self.total.binary, self.total.ternary, self.total_op.matrix) if block \
            else _section_basis(self, self.canonical_section())
        read = _SectionRead(*tensors, n, m, self.total_op.weight)
        object.__setattr__(self, "_canonical", read)
        # read from the nonzero cells: i, j, k are argument indices, and the
        # last one is the output coordinate
        pairs = [idx for idx, _ in read.binary.entries()]
        triples = [idx for idx, _ in read.ternary.entries()]
        if any(i >= n and j >= n for i, j, _ in pairs):
            raise InvalidInput("module image is not binary-abelian")
        if any(j >= n and (i >= n or k >= n) for i, j, k, _ in triples):
            raise InvalidInput("module image is not a ternary-abelian ideal")
        if any(i < n <= j and a < n for i, j, a in pairs) or any(
                a < n and (i < n and j < n <= k or j < n <= i and k < n)
                for i, j, k, a in triples):
            raise InvalidInput("module image is not an ideal")
        verify_ly_axioms(self.total).require(InvalidInput, "total algebra fails the axioms")
        if self.total_op._reynolds_on is not self.total:
            verify_reynolds(self.total, self.total_op).require(
                InvalidInput, "total operator fails the Reynolds identities")
        # last, so that a total failing an earlier check keeps its message
        if not _block(read.op, range(n), range(n, big)).is_zero():
            raise InvalidInput("vector does not lie in the module image")

    @property
    def base_dim(self) -> int:
        return self.project.rows

    @property
    def module_dim(self) -> int:
        return self.inject.cols

    def canonical_section(self) -> Section:
        """Any right inverse of project; free coordinates are zeroed, so in
        block form this is x -> (x, 0), which is returned with no
        elimination."""
        if self._block_form:
            return Section(self.project.transpose())
        return Section(right_inverse(self.project))

    def check_section(self, s: Section) -> None:
        if (s.map.rows, s.map.cols) != (self.total.dim, self.base_dim):
            raise NotSection("section has the wrong shape")
        if self.project @ s.map != Matrix.identity(self.base_dim):
            raise NotSection("project o section != identity")

    @cached_property
    def _block_copy(self) -> "AbelianExtension":
        """Off block form, :func:`to_block_form`'s copy: ``_canonical`` as
        its total.  A change of basis keeps the Reynolds identities of this
        verified total, so the copy's operator is certified on the copy's
        total; LY1-LY6 are scanned again, so that a failure is still
        reported in the copy's basis."""
        read = self._canonical
        total = LyAlgebra(read.n + read.m, read.binary, read.ternary)
        return AbelianExtension(
            total, _certify_reynolds(total, ReynoldsOperator(read.op, read.weight)),
            *_canonical_arrows(read.n, read.m))


def assemble_extension(algebra: LyAlgebra, op: ReynoldsOperator,
                       rep: Representation, cocycle: ExtensionCocycle
                       ) -> tuple[LyAlgebra, ReynoldsOperator]:
    """Raw total structure on L (+) V twisted by a degree-2 cochain:

        [x+u, y+v]      = [x,y] + rho(x)v - rho(y)u + nu(x,y)
        {x+u,y+v,z+w}   = {x,y,z} + theta(y,z)u - theta(x,z)v + D(x,y)w + psi(x,y,z)
        T(x+u)          = Tx + chi(x) + T_V u

    The cells of the semidirect total (representation.semidirect_cells),
    with nu and psi added on the module coordinates of [L,L] and {L,L,L},
    and chi below T in the operator; both images of each antisymmetric pair
    are written, and certified.  No cocycle condition is checked here;
    feeding a non-cocycle yields a total structure that fails verification,
    which is the point of keeping this assembly separate from
    :func:`build_extension`.
    """
    if rep.module_op is None:
        raise InvalidInput("extensions need a module operator on V")
    n, m = algebra.dim, rep.module_dim
    if op.dim != n:
        raise DimMismatch("operator does not match the algebra dimension")
    if (cocycle.alg_dim, cocycle.mod_dim) != (n, m):
        raise DimMismatch("cocycle shapes do not match the base data")
    binary, ternary = semidirect_cells(algebra, rep)
    binary.update(((*idx, n + a), c) for (*idx, a), c in cocycle.nu.entries())
    ternary.update(((*idx, n + a), c) for (*idx, a), c in cocycle.psi.entries())
    # T_hat = [[T, 0], [chi, T_V]], stacked from stored rows
    total_op = ReynoldsOperator(Matrix._of(n + m, n + m, op.matrix.sparse + tuple(
        chi + tuple((n + b, x) for b, x in tv)
        for chi, tv in zip(cocycle.chi.sparse, rep.module_op.sparse))), op.weight)
    labels = tuple(algebra.labels) + tuple(f"v{a + 1}" for a in range(m)) \
        if algebra.labels else None
    big = n + m
    return LyAlgebra(big, Tensor.of_indices(binary, big, 2, big, antisymmetric=True),
                     Tensor.of_indices(ternary, big, 3, big, antisymmetric=True), labels), total_op


def _check_base(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation) -> None:
    """The input gate (representation.check_inputs), and a module operator
    on V, which every extension carries."""
    check_inputs(algebra, op, rep)
    if rep.module_op is None:
        raise MissingModuleOp("representation has no module operator")


def semidirect_product(algebra: LyAlgebra, op: ReynoldsOperator,
                       rep: Representation) -> tuple[LyAlgebra, ReynoldsOperator]:
    """Algebra structure on L (+) V with V an abelian ideal:

        [x+u, y+v]        = [x,y] + rho(x)v - rho(y)u
        {x+u, y+v, z+w}   = {x,y,z} + D(x,y)w - theta(x,z)v + theta(y,z)u

    and block-diagonal operator T (+) T_V of the same weight: the assembly
    of the zero cocycle.  The axioms of the output are re-validated before
    it is returned.  Its operator is certified Reynolds on it, not scanned:
    the input gate's module-operator check ran that battery on the same
    cells (for the adjoint module with T_V = T, T being Reynolds on L is
    that check).
    """
    _check_base(algebra, op, rep)
    total_algebra, total_op = assemble_extension(
        algebra, op, rep, ExtensionCocycle.zero(algebra.dim, rep.module_dim))
    verify_ly_axioms(total_algebra).require(
        InternalInconsistency, "semidirect product fails the Lie-Yamaguti axioms")
    return total_algebra, _certify_reynolds(total_algebra, total_op)


@lru_cache(maxsize=None)
def _canonical_arrows(n: int, m: int) -> tuple[Matrix, Matrix]:
    """The block maps (inject, project) of L (+) V, built once per (n, m):
    the constructor compares the arrows that :func:`build_extension` passes
    with the same two objects, which equality matches before any entry."""
    unit, big = Matrix.identity(n + m), range(n + m)
    return _block(unit, big, range(n, n + m)), _block(unit, range(n), big)


def build_extension(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                    cocycle: ExtensionCocycle) -> AbelianExtension:
    """Extension in block form built from a 2-cocycle.

    After the input gate, non-cocycles are rejected (NotCocycle).  The
    assembled tensors are antisymmetric by construction and are not
    re-validated, and the operator is certified Reynolds on the total: the
    cocycle test found the lower cone component zero (see the module
    docstring).  The general constructor checks the rest with the
    canonical arrows: their equality with the block maps (exactness), the
    abelian ideal over the total's cells and LY1-LY6 of the total, so a
    cocycle that does not assemble into a valid extension (dim >= 3)
    raises.  Its canonical read is seeded with its inputs, which the input
    gate and :func:`is_cocycle` have certified: (L, T, T_V), with the
    labels of L dropped as a read drops them, the representation and the
    cocycle.
    """
    _check_base(algebra, op, rep)
    if not is_cocycle(algebra, op, rep, "rly", cocycle.to_cochain()):
        raise NotCocycle("the extension data is not a degree-2 cocycle")
    total_algebra, total_op = assemble_extension(algebra, op, rep, cocycle)
    ext = AbelianExtension(total_algebra, _certify_reynolds(total_algebra, total_op),
                           *_canonical_arrows(algebra.dim, rep.module_dim))
    base = algebra if algebra.labels is None else LyAlgebra(
        algebra.dim, algebra.binary, algebra.ternary)
    vars(ext._canonical).update(base=(base, op, rep.module_op), rep=rep, cocycle=cocycle)
    return ext


def class_representatives(algebra: LyAlgebra, op: ReynoldsOperator,
                          rep: Representation) -> tuple[Vector, ...]:
    """One kernel vector per class of the degree-2 cone cohomology, as flat
    cone coordinates.

    The columns [image of d^1 | kernel basis of d^2] are eliminated once.  A
    kernel vector is kept when its column is a pivot, that is when it is not
    in the span of the image and of the kernel vectors before it.
    """
    d1 = differential_matrix(algebra, op, rep, "rly", 1)
    ker = kernel_basis(differential_matrix(algebra, op, rep, "rly", 2)).vectors
    stacked = Matrix._of(d1.cols + len(ker), d1.rows, d1.transpose().sparse + tuple(
        tuple((i, x) for i, x in enumerate(v) if x) for v in ker)).transpose()
    return tuple(ker[p - d1.cols] for p in pivot_columns(stacked) if p >= d1.cols)


def _section_basis(ext: AbelianExtension, section: Section) -> tuple[Tensor, Tensor, Matrix]:
    """The total binary and ternary tensors and operator matrix in the basis
    s(e_1..e_n), i(v_1..v_m) of ``section``: base indices 0..n-1, module
    indices n..n+m-1, blocks as :func:`assemble_extension` writes them.

    In the standard basis (block form with its canonical section) these are
    the extension's own tensors.  Otherwise, with C = [s | i] the change of
    basis, the brackets are moved by C in every argument slot and by C^-1
    after the output (:func:`algebra.transport`), over one integer read.
    """
    big = ext.total.dim
    # column i of C is s(e_i), column n + a is i(v_a): row i of its transpose
    basis_change = Matrix._of(big, big, section.map.transpose().sparse
                              + ext.inject.transpose().sparse).transpose()
    if basis_change == Matrix.identity(big):
        return ext.total.binary, ext.total.ternary, ext.total_op.matrix
    binv = inverse(basis_change)
    read = IntegerRead((ext.total.binary,), (ext.total.ternary,), (basis_change, binv))
    pre, post = read.t_row[:1], read.t_col[1:]
    binary, ternary = (
        dense_tensor(transport(tables, depth, big, pre, post)[0], depth, big,
                     read.den ** (depth + 2))
        for tables, depth in ((read.f, 2), (read.g, 3)))
    return binary, ternary, binv @ ext.total_op.matrix @ basis_change


def _base_blocks(binary: Tensor, ternary: Tensor, n: int, offset: int, width: int
                 ) -> tuple[Tensor, Tensor]:
    """The [L,L] and {L,L,L} blocks of section-basis tensors, from their
    cells, each vector cut to its ``width`` coordinates from ``offset``: its
    base coordinates (0, n) or its module coordinates (n, m)."""
    def block(tensor, depth):
        return Tensor.of_indices(
            {(*idx, a - offset): c for (*idx, a), c in tensor.entries()
             if max(idx) < n and offset <= a < offset + width}, n, depth, width)

    return block(binary, 2), block(ternary, 3)


def _block(mat: Matrix, rows: range, cols: range) -> Matrix:
    return Matrix._of(len(rows), len(cols), tuple(
        tuple((j - cols.start, x) for j, x in mat.sparse[i] if j in cols) for i in rows))


@dataclass(eq=False)
class _SectionRead:
    """The total's tensors and operator matrix in the basis of one section
    (:func:`_section_basis`), with n, m and the weight; ``base``, ``rep``
    and ``cocycle`` are its reads, each built on first use and kept.  It
    holds no reference to the extension."""

    binary: Tensor
    ternary: Tensor
    op: Matrix
    n: int
    m: int
    weight: Fraction

    @cached_property
    def base(self) -> tuple[LyAlgebra, ReynoldsOperator, Matrix]:
        """(L, T, T_V): the base parts of the base blocks and of T_hat, which
        do not depend on the section because the kernel is an ideal, and
        the module block of T_hat."""
        n, module = self.n, range(self.n, self.n + self.m)
        return (LyAlgebra(n, *_base_blocks(self.binary, self.ternary, n, 0, n)),
                ReynoldsOperator(_block(self.op, range(n), range(n)), self.weight),
                _block(self.op, module, module))

    @cached_property
    def rep(self) -> Representation:
        """The rho and theta blocks, with T_V, validated against (L, T)."""
        n, m = self.n, self.m
        # entry (a, v) of rho(e_i) is [e_i, v]_a, and of theta(e_i, e_j) it is
        # {v, e_i, e_j}_a, for v and a past n
        rho = from_cells({(i, a - n, v - n): c for (i, v, a), c in self.binary.entries()
                          if i < n <= v and a >= n}, (n, m, m))
        theta = from_cells({(i, j, a - n, v - n): c for (v, i, j, a), c in self.ternary.entries()
                            if max(i, j) < n <= v and a >= n}, (n, n, m, m))
        base, base_op, tv = self.base
        rep = Representation(n, m, rho, theta, tv)
        verify_reynolds_rep(base, base_op, rep).require(
            InternalInconsistency, "representation read off a verified extension fails")
        return rep

    @cached_property
    def cocycle(self) -> ExtensionCocycle:
        """The module parts of the base blocks, since v - s(project(v)) =
        i(module part of v), re-checked to be a cocycle."""
        n = self.n
        nu, psi = _base_blocks(self.binary, self.ternary, n, n, self.m)
        cocycle = ExtensionCocycle(nu, psi, _block(self.op, range(n, n + self.m), range(n)))
        base, base_op, _tv = self.base
        if not is_cocycle(base, base_op, self.rep, "rly", cocycle.to_cochain()):
            raise InternalInconsistency(
                "defect data of a verified extension is not a cocycle")
        return cocycle


def _reads(ext: AbelianExtension, section: Section | None) -> _SectionRead:
    """With no section, the kept read of the canonical section, the
    block-form copy's off block form; otherwise a new read of ``section``."""
    if section is None:
        return to_block_form(ext)._canonical
    ext.check_section(section)
    return _SectionRead(*_section_basis(ext, section), ext.base_dim, ext.module_dim,
                        ext.total_op.weight)


def base_data(ext: AbelianExtension, section: Section | None = None
              ) -> tuple[LyAlgebra, ReynoldsOperator, Matrix]:
    """Recover (L, T, T_V) from an extension, in the basis of ``section``
    (the canonical one when None)."""
    return _reads(ext, section).base


def extract_rep(ext: AbelianExtension, section: Section | None = None) -> Representation:
    """Representation of the base on V read off a sectioned extension:

        rho(x) u      = [s(x), i(u)]
        theta(x,y) u  = {i(u), s(x), s(y)}

    Independent of the section because the kernel is abelian; validated
    against the recovered base data before being returned.
    """
    return _reads(ext, section).rep


def extract_cocycle(ext: AbelianExtension, section: Section | None = None
                    ) -> ExtensionCocycle:
    """Defect cochain of a sectioned extension:

        nu(x,y)    = [s(x), s(y)] - s([x,y])
        psi(x,y,z) = {s(x), s(y), s(z)} - s({x,y,z})
        chi(x)     = T_hat s(x) - s(T x)

    All three defects land in the module image; the result is verified to be
    a cocycle over the recovered base data.
    """
    return _reads(ext, section).cocycle


def to_block_form(ext: AbelianExtension) -> AbelianExtension:
    """Transport an extension to block coordinates on L (+) V: its
    canonical read as the total, with the canonical block maps as arrows,
    verified once and kept on ``ext``.  An extension already in block form
    is returned as it is."""
    return ext if ext._block_form else ext._block_copy


def extensions_equivalent(e1: AbelianExtension, e2: AbelianExtension) -> Matrix | None:
    """The equivalence x+u -> x + iota(x) + u when the cocycle classes agree,
    None otherwise.

    Both extensions are first moved to block form and must recover identical
    base data and representation from their kept canonical reads.  When a
    witness iota with d(iota) = c1 - c2 exists, the block map it defines is
    verified to preserve both brackets and the operator and to commute with
    the two arrows before being returned.
    """
    e1 = to_block_form(e1)
    e2 = to_block_form(e2)
    r1, r2 = e1._canonical, e2._canonical
    if r1.base != r2.base:
        raise IncompatibleData("extensions do not share base algebra/operators")
    if r1.rep != r2.rep:
        raise IncompatibleData("extensions do not induce the same representation")
    base, base_op, _tv = r1.base
    witness = coboundary_preimage(base, base_op, r1.rep, "rly",
                                  r1.cocycle.to_cochain() - r2.cocycle.to_cochain())
    if witness is None:
        return None
    iota = matrix_from_cochain(witness.top)
    phi = Matrix.identity(e1.total.dim) + e1.inject @ iota @ e1.project

    bad = _morphism_failure(phi, e1.total, e2.total)
    if bad is not None:
        kind = "binary" if len(bad) == 2 else "ternary"
        raise InternalInconsistency(f"equivalence map fails the {kind} bracket")
    if phi @ e1.total_op.matrix != e2.total_op.matrix @ phi:
        raise InternalInconsistency("equivalence map fails to intertwine the operators")
    if phi @ e1.inject != e2.inject or e2.project @ phi != e1.project:
        raise InternalInconsistency("equivalence map breaks the exact-sequence diagram")
    return phi
