"""Abelian extensions of a Reynolds Lie-Yamaguti algebra by a module.

An extension is a total algebra-with-operator sitting in a short exact
sequence V >-> L_hat ->> L whose kernel is an abelian ideal, which the
constructor checks.  It is read in the basis s(e_1..e_n), i(v_1..v_m) of a
section s, where the total brackets and operator split into blocks: the base
data (L, T), the representation (rho, theta, T_V) and a degree-2 cone
cochain (nu, psi, chi).  :func:`assemble_extension` writes those blocks and
every reader slices them back out; in block form, with its canonical section
x -> (x, 0), that basis is the standard one.  The assembly verifies exactly
when the cochain is a cocycle, and extensions are compared through their
cocycle classes, never by searching over isomorphisms.

An extension keeps what its canonical section reads: the base data, the
verified representation and the verified defect cocycle, each built on first
use; off block form they are kept on its block-form copy, which is kept
too.  :func:`build_extension` seeds the three from its inputs, which the
input gate and the cocycle test have certified, so its extensions are never
read back.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .reynolds import ReynoldsOperator, verify_reynolds


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

    Construction verifies what can be verified intrinsically: exactness
    (inject injective, project surjective, project o inject = 0, dimensions
    adding up), the module image being an abelian ideal, and the total
    structure passing the algebra and operator verifiers.  Arrows equal to
    the block maps of :func:`_canonical_arrows` are exact by that equality,
    and their section is [I; 0], so block form skips the ranks, the product
    and the change of basis, and reads the total's own tensors.  In the
    basis s(e_1..e_n), i(v_1..v_m) of the canonical section, [v, w],
    {z, v, w} and {v, w, z} must vanish and [x, v], {x, y, v} and {v, x, y}
    have no base part, for x, y in L, v, w in V and any z.  So every LY1-LY6
    term with two module arguments vanishes; the check of the total, in any
    basis, reads pairs of nonzero cells only, and such a term has none (see
    algebra._ly_identities).  Compatibility with a given base (L, T) and
    module operator, and T_hat mapping V into V, are checked by the
    operations that read that data.

    The reads of the canonical section (``_base``, ``_rep``, ``_cocycle``)
    are kept, off block form on the kept block-form copy (``_block_copy``);
    they are not fields, so ``==`` and the hash ignore them.
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
        binary, ternary, _ = self._read()
        # read from the nonzero cells: i, j, k are argument indices, and the
        # last one is the output coordinate
        pairs = [idx for idx, _ in binary.entries()]
        triples = [idx for idx, _ in ternary.entries()]
        if any(i >= n and j >= n for i, j, _ in pairs):
            raise InvalidInput("module image is not binary-abelian")
        if any(j >= n and (i >= n or k >= n) for i, j, k, _ in triples):
            raise InvalidInput("module image is not a ternary-abelian ideal")
        if any(i < n <= j and a < n for i, j, a in pairs) or any(
                a < n and (i < n and j < n <= k or j < n <= i and k < n)
                for i, j, k, a in triples):
            raise InvalidInput("module image is not an ideal")
        verify_ly_axioms(self.total).require(InvalidInput, "total algebra fails the axioms")
        verify_reynolds(self.total, self.total_op).require(
            InvalidInput, "total operator fails the Reynolds identities")

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

    def _read(self) -> tuple[Tensor, Tensor, Matrix]:
        """The :func:`_section_basis` read of the canonical section.  In
        block form it is the total's own tensors and operator matrix; other
        arrows read afresh, and only ``_block_copy`` keeps such a read."""
        if self._block_form:
            return self.total.binary, self.total.ternary, self.total_op.matrix
        return _section_basis(self, self.canonical_section())

    @cached_property
    def _block_copy(self) -> "AbelianExtension":
        """Off block form, :func:`to_block_form`'s copy, built from one
        :meth:`_read` and kept."""
        n, m = self.base_dim, self.module_dim
        binary, ternary, op = self._read()
        return AbelianExtension(LyAlgebra(n + m, binary, ternary),
                                ReynoldsOperator(op, self.total_op.weight),
                                *_canonical_arrows(n, m))

    def _kept(self, name: str):
        """The kept read ``name`` of the canonical section: ``_base``, then
        ``_rep`` taken with it, then ``_cocycle`` taken with both.  Those
        up to ``name`` that are not kept yet are built from one
        :meth:`_read` and kept; off block form they are the block-form
        copy's, whose read is its own tensors."""
        if not self._block_form:
            return self._block_copy._kept(name)
        kept = self.__dict__
        if name not in kept:
            read = self._read()
            if "_base" not in kept:
                kept["_base"] = _read_base(self, read)
            base, base_op, tv = kept["_base"]
            if name != "_base" and "_rep" not in kept:
                kept["_rep"] = _read_rep(self, read, base, base_op, tv)
            if name == "_cocycle":
                kept["_cocycle"] = _defect_cocycle(self, read, base, base_op, kept["_rep"])
        return kept[name]

    _base = property(lambda self: self._kept("_base"))
    _rep = property(lambda self: self._kept("_rep"))
    _cocycle = property(lambda self: self._kept("_cocycle"))


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
    of the zero cocycle.  The output is re-validated (axioms and Reynolds
    identities) before being returned.
    """
    _check_base(algebra, op, rep)
    total_algebra, total_op = assemble_extension(
        algebra, op, rep, ExtensionCocycle.zero(algebra.dim, rep.module_dim))
    verify_ly_axioms(total_algebra).require(
        InternalInconsistency, "semidirect product fails the Lie-Yamaguti axioms")
    verify_reynolds(total_algebra, total_op).require(
        InternalInconsistency, "semidirect operator fails the Reynolds identities")
    return total_algebra, total_op


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
    re-validated.  The general constructor checks the rest with the
    canonical arrows: their equality with the block maps (exactness), the
    abelian ideal over the total's cells, LY1-LY6 of the total and the
    Reynolds identities of its operator, so a cocycle that does not
    assemble into a valid extension (dim >= 3) raises.  The extension keeps
    its inputs as the reads of its canonical section: (L, T, T_V), with the
    labels of L dropped as a read drops them, the representation and the
    cocycle, which the input gate and :func:`is_cocycle` have certified.
    """
    _check_base(algebra, op, rep)
    if not is_cocycle(algebra, op, rep, "rly", cocycle.to_cochain()):
        raise NotCocycle("the extension data is not a degree-2 cocycle")
    total_algebra, total_op = assemble_extension(algebra, op, rep, cocycle)
    ext = AbelianExtension(total_algebra, total_op,
                           *_canonical_arrows(algebra.dim, rep.module_dim))
    base = algebra if algebra.labels is None else LyAlgebra(
        algebra.dim, algebra.binary, algebra.ternary)
    vars(ext).update(_base=(base, op, rep.module_op), _rep=rep, _cocycle=cocycle)
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


def _read_base(ext: AbelianExtension, read) -> tuple[LyAlgebra, ReynoldsOperator, Matrix]:
    """(L, T, T_V) from the :func:`_section_basis` read of a section.

    In that basis the base brackets and T are the base parts of the base
    blocks (independent of the section because the kernel is an ideal), and
    T_V is the module block of T_hat, whose base part must vanish for the
    module to be operator-stable."""
    binary, ternary, op = read
    n = ext.base_dim
    base, module = range(n), range(n, ext.total.dim)
    if not _block(op, base, module).is_zero():
        raise InvalidInput("vector does not lie in the module image")
    base_op = ReynoldsOperator(_block(op, base, base), ext.total_op.weight)
    return (LyAlgebra(n, *_base_blocks(binary, ternary, n, 0, n)), base_op,
            _block(op, module, module))


def base_data(ext: AbelianExtension, section: Section | None = None
              ) -> tuple[LyAlgebra, ReynoldsOperator, Matrix]:
    """Recover (L, T, T_V) from an extension, in the basis of ``section``;
    with no section, the extension's kept read of its canonical one."""
    if section is None:
        return ext._base
    ext.check_section(section)
    return _read_base(ext, _section_basis(ext, section))


def _read_rep(ext: AbelianExtension, read, base: LyAlgebra, base_op: ReynoldsOperator,
              tv: Matrix) -> Representation:
    """The representation of L on V, T_V included, from the read of a
    section and the base data taken from it: the rho and theta blocks,
    validated against that base data."""
    binary, ternary, _ = read
    n, m = ext.base_dim, ext.module_dim
    # entry (a, v) of rho(e_i) is [e_i, v]_a, and of theta(e_i, e_j) it is
    # {v, e_i, e_j}_a, for v and a past n
    rho = from_cells({(i, a - n, v - n): c for (i, v, a), c in binary.entries()
                      if i < n <= v and a >= n}, (n, m, m))
    theta = from_cells({(i, j, a - n, v - n): c for (v, i, j, a), c in ternary.entries()
                        if max(i, j) < n <= v and a >= n}, (n, n, m, m))
    rep = Representation(n, m, rho, theta, tv)
    verify_reynolds_rep(base, base_op, rep).require(
        InternalInconsistency, "representation read off a verified extension fails")
    return rep


def _base_and_rep(ext: AbelianExtension, section: Section
                  ) -> tuple[tuple, LyAlgebra, ReynoldsOperator, Representation]:
    """One :func:`_section_basis` read of a given section, and the base data
    (L, T) and representation taken from it; callers pass the read on to
    further readers of the section."""
    ext.check_section(section)
    read = _section_basis(ext, section)
    base, base_op, tv = _read_base(ext, read)
    return read, base, base_op, _read_rep(ext, read, base, base_op, tv)


def extract_rep(ext: AbelianExtension, section: Section | None = None) -> Representation:
    """Representation of the base on V read off a sectioned extension:

        rho(x) u      = [s(x), i(u)]
        theta(x,y) u  = {i(u), s(x), s(y)}

    Independent of the section because the kernel is abelian; validated
    against the recovered base data before being returned.  With no
    section, the extension's kept read of its canonical one.
    """
    if section is None:
        return ext._rep
    return _base_and_rep(ext, section)[3]


def _defect_cocycle(ext: AbelianExtension, read, base: LyAlgebra,
                    base_op: ReynoldsOperator, rep: Representation) -> ExtensionCocycle:
    """The defect cochain of :func:`extract_cocycle` from the read of a
    section and the base data already taken from it, re-checked to be a
    cocycle.

    In the basis of the section each defect is the module part of a base
    block: v - s(project(v)) = i(module part of v) for a total vector v.
    """
    binary, ternary, op = read
    n = ext.base_dim
    nu, psi = _base_blocks(binary, ternary, n, n, ext.module_dim)
    cocycle = ExtensionCocycle(nu, psi, _block(op, range(n, ext.total.dim), range(n)))

    if not is_cocycle(base, base_op, rep, "rly", cocycle.to_cochain()):
        raise InternalInconsistency(
            "defect data of a verified extension is not a cocycle")
    return cocycle


def extract_cocycle(ext: AbelianExtension, section: Section | None = None
                    ) -> ExtensionCocycle:
    """Defect cochain of a sectioned extension:

        nu(x,y)    = [s(x), s(y)] - s([x,y])
        psi(x,y,z) = {s(x), s(y), s(z)} - s({x,y,z})
        chi(x)     = T_hat s(x) - s(T x)

    All three defects land in the module image; the result is verified to be
    a cocycle over the recovered base data.  With no section, the
    extension's kept read of its canonical one.
    """
    if section is None:
        return ext._cocycle
    return _defect_cocycle(ext, *_base_and_rep(ext, section))


def to_block_form(ext: AbelianExtension) -> AbelianExtension:
    """Transport an extension to block coordinates on L (+) V: its total
    read in the basis of the canonical section, with the canonical block
    maps as arrows, verified once and kept on ``ext`` with the reads of that
    section.  An extension already
    in block form is returned as it is."""
    return ext if ext._block_form else ext._block_copy


def extensions_equivalent(e1: AbelianExtension, e2: AbelianExtension) -> Matrix | None:
    """The equivalence x+u -> x + iota(x) + u when the cocycle classes agree,
    None otherwise.

    Both extensions are first moved to block form and must recover identical
    base data; each side's base data, representation and cocycle are its
    kept, verified reads.  When a witness iota with d(iota) = c1 - c2
    exists, the block map it defines is verified to preserve both brackets
    and the operator and to commute with the two arrows before being
    returned.
    """
    e1 = to_block_form(e1)
    e2 = to_block_form(e2)
    (base, base_op, tv), rep = e1._base, e1._rep
    (b2, o2, tv2), r2 = e2._base, e2._rep
    if (base, base_op, tv) != (b2, o2, tv2):
        raise IncompatibleData("extensions do not share base algebra/operators")
    if rep != r2:
        raise IncompatibleData("extensions do not induce the same representation")
    c1 = e1._cocycle.to_cochain()
    c2 = e2._cocycle.to_cochain()
    witness = coboundary_preimage(base, base_op, rep, "rly", c1 - c2)
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
