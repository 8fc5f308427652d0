"""Abelian extensions of a Reynolds Lie-Yamaguti algebra by a module.

An extension is a total algebra-with-operator sitting in a short exact
sequence V >-> L_hat ->> L whose kernel is an abelian ideal.  Given a
section, the total structure unpacks into the base data plus a degree-2
cone cochain (nu, psi, chi); conversely a cochain assembles into a total
structure on L (+) V, and the assembly verifies exactly when the cochain is
a cocycle.  Equivalence classes of extensions are compared through their
cocycle classes, never by searching over isomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (
    LyAlgebra,
    _morphism_failure,
    bracket2,
    bracket3,
    orbit_tuples,
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
    NotCocycle,
    NotSection,
)
from .linalg import (
    Matrix,
    Vector,
    inverse,
    kernel_basis,
    pivot_columns,
    rank,
    solve,
    unit_vector,
    vec_sub,
    zero_vector,
)
from .representation import (
    Representation,
    _require_reynolds_rep,
    d_table,
    verify_reynolds_rep,
)
from .reynolds import ReynoldsOperator, verify_reynolds


@dataclass(frozen=True)
class ExtensionCocycle:
    """Defect data of a sectioned extension: nu[i][j] and psi[i][j][k] are
    V-valued (antisymmetric in i, j), chi is the operator defect L -> V."""

    nu: tuple
    psi: tuple
    chi: Matrix

    def __post_init__(self):
        n = len(self.nu)
        m = self.chi.rows
        if self.chi.cols != n:
            raise DimMismatch("chi must map the base algebra into the module")
        # the cochain conversion normalizes entries and enforces antisymmetry
        top = cochain2_from_tensors(n, m, self.nu, self.psi)
        nu, psi = tensors_from_cochain2(top)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "psi", psi)

    @property
    def alg_dim(self) -> int:
        return len(self.nu)

    @property
    def mod_dim(self) -> int:
        return self.chi.rows

    def to_cochain(self) -> RlyCochain:
        top = cochain2_from_tensors(self.alg_dim, self.mod_dim, self.nu, self.psi)
        return RlyCochain(top, cochain_from_matrix(self.chi))

    @classmethod
    def from_cochain(cls, c: RlyCochain) -> "ExtensionCocycle":
        if c.degree != 2:
            raise DimMismatch("extension cocycles are degree-2 cone cochains")
        nu, psi = tensors_from_cochain2(c.top)
        return cls(nu, psi, matrix_from_cochain(c.tail))

    @classmethod
    def zero(cls, alg_dim: int, mod_dim: int) -> "ExtensionCocycle":
        zv = zero_vector(mod_dim)
        nu = tuple(tuple(zv for _ in range(alg_dim)) for _ in range(alg_dim))
        psi = tuple(tuple(tuple(zv for _ in range(alg_dim)) for _ in range(alg_dim))
                    for _ in range(alg_dim))
        return cls(nu, psi, Matrix.zero(mod_dim, alg_dim))


@dataclass(frozen=True)
class Section:
    """A right inverse of the projection, L -> L_hat."""

    map: Matrix


@dataclass(frozen=True)
class AbelianExtension:
    """Total structure plus the two arrows of the short exact sequence.

    Construction verifies what can be verified intrinsically: exactness
    (inject injective, project surjective, project o inject = 0, dimensions
    adding up), the kernel being an abelian ideal, and the total structure
    passing the algebra and operator verifiers.  Compatibility with a given
    base (L, T) and module operator is checked by the operations that
    receive that base data.
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
        m = self.inject.cols
        n = self.project.rows
        if n + m != big:
            raise InvalidInput("base and module dimensions must add to the total")
        if rank(self.inject) != m:
            raise InvalidInput("inject is not injective")
        if rank(self.project) != n:
            raise InvalidInput("project is not surjective")
        if not (self.project @ self.inject).is_zero():
            raise InvalidInput("project o inject != 0")
        v_img = [self.inject.column(a) for a in range(m)]
        # [v_a, v_b] and {v_a, v_b, z} are antisymmetric in a, b, so a < b
        # decides them; {z, v_a, v_b} is not
        for a, b in orbit_tuples(m, (2,)):
            if any(c != 0 for c in bracket2(self.total, v_img[a], v_img[b])):
                raise InvalidInput("module image is not binary-abelian")
        for z in range(big):
            zv = self.total.basis(z)
            for a, b in product(range(m), repeat=2):
                if any(c != 0 for c in bracket3(self.total, zv, v_img[a], v_img[b])) or \
                        a < b and any(c != 0 for c in bracket3(self.total, v_img[a], v_img[b], zv)):
                    raise InvalidInput("module image is not a ternary-abelian ideal")
        axioms = verify_ly_axioms(self.total)
        if not axioms.ok:
            raise InvalidInput("total algebra fails the axioms:\n" + axioms.describe())
        rey = verify_reynolds(self.total, self.total_op)
        if not rey.ok:
            raise InvalidInput("total operator fails the Reynolds identities:\n"
                               + rey.describe())

    @property
    def base_dim(self) -> int:
        return self.project.rows

    @property
    def module_dim(self) -> int:
        return self.inject.cols

    def canonical_section(self) -> Section:
        """Any right inverse of project; free coordinates are zeroed, so in
        block form this is x -> (x, 0)."""
        cols = []
        for i in range(self.base_dim):
            cols.append(solve(self.project, unit_vector(self.base_dim, i)))
        return Section(Matrix.from_columns(cols, self.total.dim))

    def check_section(self, s: Section) -> None:
        if (s.map.rows, s.map.cols) != (self.total.dim, self.base_dim):
            raise NotSection("section has the wrong shape")
        if self.project @ s.map != Matrix.identity(self.base_dim):
            raise NotSection("project o section != identity")

    def module_coords(self, vec) -> tuple:
        """Coordinates in V of a total vector lying in the module image."""
        sol = solve(self.inject, vec)
        if sol is None or self.inject.apply(sol) != tuple(vec):
            raise InvalidInput("vector does not lie in the module image")
        return sol


def assemble_extension(algebra: LyAlgebra, op: ReynoldsOperator,
                       rep: Representation, cocycle: ExtensionCocycle
                       ) -> tuple[LyAlgebra, ReynoldsOperator]:
    """Raw total structure on L (+) V twisted by a degree-2 cochain:

        [x+u, y+v]      = [x,y] + rho(x)v - rho(y)u + nu(x,y)
        {x+u,y+v,z+w}   = {x,y,z} + theta(y,z)u - theta(x,z)v + D(x,y)w + psi(x,y,z)
        T(x+u)          = Tx + chi(x) + T_V u

    No cocycle condition is checked here; feeding a non-cocycle yields a
    total structure that fails verification, which is the point of keeping
    this assembly separate from :func:`build_extension`.
    """
    if rep.module_op is None:
        raise InvalidInput("extensions need a module operator on V")
    n, m = algebra.dim, rep.module_dim
    if (cocycle.alg_dim, cocycle.mod_dim) != (n, m):
        raise DimMismatch("cocycle shapes do not match the base data")
    total = n + m
    dd = d_table(algebra, rep)
    zl = zero_vector(n)
    zv = zero_vector(m)

    def pad_l(vec):
        return tuple(vec) + zv

    def pad_v(vec):
        return zl + tuple(vec)

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    binary = [[None] * total for _ in range(total)]
    for i in range(total):
        for j in range(total):
            if i < n and j < n:
                binary[i][j] = add(pad_l(algebra.binary[i][j]), pad_v(cocycle.nu[i][j]))
            elif i < n <= j:
                binary[i][j] = pad_v(rep.rho[i].column(j - n))
            elif j < n <= i:
                binary[i][j] = pad_v(tuple(-c for c in rep.rho[j].column(i - n)))
            else:
                binary[i][j] = zl + zv

    ternary = [[[None] * total for _ in range(total)] for _ in range(total)]
    for i in range(total):
        for j in range(total):
            for k in range(total):
                li, lj, lk = i < n, j < n, k < n
                if li and lj and lk:
                    ternary[i][j][k] = add(pad_l(algebra.ternary[i][j][k]),
                                           pad_v(cocycle.psi[i][j][k]))
                elif li and lj and not lk:
                    ternary[i][j][k] = pad_v(dd[i][j].column(k - n))
                elif li and not lj and lk:
                    ternary[i][j][k] = pad_v(
                        tuple(-c for c in rep.theta[i][k].column(j - n)))
                elif not li and lj and lk:
                    ternary[i][j][k] = pad_v(rep.theta[j][k].column(i - n))
                else:
                    ternary[i][j][k] = zl + zv

    rows = []
    for i in range(n):
        rows.append(list(op.matrix.row(i)) + [Fraction(0)] * m)
    for a in range(m):
        rows.append(list(cocycle.chi.row(a)) + list(rep.module_op.row(a)))
    total_op = ReynoldsOperator(Matrix.from_rows(rows, total), op.weight)

    labels = None
    if algebra.labels:
        labels = tuple(algebra.labels) + tuple(f"v{a + 1}" for a in range(m))
    total_algebra = LyAlgebra(total, tuple(map(tuple, binary)),
                              tuple(tuple(map(tuple, row)) for row in ternary), labels)
    return total_algebra, total_op


def semidirect_product(algebra: LyAlgebra, op: ReynoldsOperator,
                       rep: Representation) -> tuple[LyAlgebra, ReynoldsOperator]:
    """Algebra structure on L (+) V with V an abelian ideal:

        [x+u, y+v]        = [x,y] + rho(x)v - rho(y)u
        {x+u, y+v, z+w}   = {x,y,z} + D(x,y)w - theta(x,z)v + theta(y,z)u

    and block-diagonal operator T (+) T_V of the same weight: the assembly
    of the zero cocycle.  The output is re-validated (axioms and Reynolds
    identities) before being returned.
    """
    _require_reynolds_rep(algebra, op, rep)
    total_algebra, total_op = assemble_extension(
        algebra, op, rep, ExtensionCocycle.zero(algebra.dim, rep.module_dim))
    axioms = verify_ly_axioms(total_algebra)
    if not axioms.ok:
        raise InternalInconsistency(
            "semidirect product fails the Lie-Yamaguti axioms:\n" + axioms.describe())
    again = verify_reynolds(total_algebra, total_op)
    if not again.ok:
        raise InternalInconsistency(
            "semidirect operator fails the Reynolds identities:\n" + again.describe())
    return total_algebra, total_op


def _canonical_arrows(n: int, m: int) -> tuple[Matrix, Matrix]:
    inject = Matrix.from_rows(
        [[1 if i - n == a else 0 for a in range(m)] for i in range(n + m)], m)
    project = Matrix.from_rows(
        [[1 if j == i else 0 for j in range(n + m)] for i in range(n)], n + m)
    return inject, project


def build_extension(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                    cocycle: ExtensionCocycle) -> AbelianExtension:
    """Extension in block form built from a 2-cocycle.

    Non-cocycles are rejected (NotCocycle): assembling them would produce a
    total structure that fails verification.  The AbelianExtension
    constructor re-verifies the assembled total, so if a cocycle ever failed
    to assemble into a valid extension it would surface loudly rather than
    produce a broken object.
    """
    _require_reynolds_rep(algebra, op, rep)
    if not is_cocycle(algebra, op, rep, "rly", cocycle.to_cochain()):
        raise NotCocycle("the extension data is not a degree-2 cocycle")
    total_algebra, total_op = assemble_extension(algebra, op, rep, cocycle)
    inject, project = _canonical_arrows(algebra.dim, rep.module_dim)
    return AbelianExtension(total_algebra, total_op, inject, project)


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
    stacked = Matrix.from_columns([d1.column(j) for j in range(d1.cols)] + list(ker),
                                  d1.rows)
    return tuple(ker[p - d1.cols] for p in pivot_columns(stacked) if p >= d1.cols)


def _bracket_tables(algebra: LyAlgebra, vectors, out) -> tuple[tuple, tuple]:
    """Binary and ternary tensors with entries out([u_i, u_j]) and
    out({u_i, u_j, u_k}), the brackets taken in ``algebra`` over ``vectors``."""
    idx = range(len(vectors))
    binary = tuple(
        tuple(out(bracket2(algebra, vectors[i], vectors[j])) for j in idx)
        for i in idx)
    ternary = tuple(
        tuple(
            tuple(out(bracket3(algebra, vectors[i], vectors[j], vectors[k])) for k in idx)
            for j in idx)
        for i in idx)
    return binary, ternary


def base_data(ext: AbelianExtension, section: Section | None = None
              ) -> tuple[LyAlgebra, ReynoldsOperator, Matrix]:
    """Recover (L, T, T_V) from an extension.

    The base brackets are the projected total brackets of section lifts
    (independent of the section because the kernel is an ideal); T is the
    projected conjugate of the total operator, and T_V solves
    inject o T_V = T_hat o inject, which must be solvable for the module to
    be operator-stable.
    """
    if section is None:
        section = ext.canonical_section()
    ext.check_section(section)
    n, m = ext.base_dim, ext.module_dim
    s = section.map
    s_img = [s.column(i) for i in range(n)]

    base = LyAlgebra(n, *_bracket_tables(ext.total, s_img, ext.project.apply))

    t_mat = Matrix.from_columns(
        [ext.project.apply(ext.total_op.matrix.apply(s_img[i])) for i in range(n)], n)
    base_op = ReynoldsOperator(t_mat, ext.total_op.weight)

    tv_cols = []
    for a in range(m):
        img = ext.total_op.matrix.apply(ext.inject.column(a))
        tv_cols.append(ext.module_coords(img))
    tv = Matrix.from_columns(tv_cols, m)
    return base, base_op, tv


def _base_and_rep(ext: AbelianExtension, section: Section
                  ) -> tuple[LyAlgebra, ReynoldsOperator, Representation]:
    """Base data (L, T) and the representation of L on V, T_V included, of
    an extension with a given section: one read of :func:`base_data`, and the
    representation validated against it."""
    base, base_op, tv = base_data(ext, section)
    n, m = ext.base_dim, ext.module_dim
    s_img = [section.map.column(i) for i in range(n)]
    v_img = [ext.inject.column(a) for a in range(m)]

    rho = tuple(
        Matrix.from_columns(
            [ext.module_coords(bracket2(ext.total, s_img[i], v_img[a]))
             for a in range(m)], m)
        for i in range(n))
    theta = tuple(
        tuple(
            Matrix.from_columns(
                [ext.module_coords(bracket3(ext.total, v_img[a], s_img[i], s_img[j]))
                 for a in range(m)], m)
            for j in range(n))
        for i in range(n))

    rep = Representation(n, m, rho, theta, tv)
    report = verify_reynolds_rep(base, base_op, rep)
    if not report.ok:
        raise InternalInconsistency(
            "representation read off a verified extension fails:\n" + report.describe())
    return base, base_op, rep


def extract_rep(ext: AbelianExtension, section: Section | None = None) -> Representation:
    """Representation of the base on V read off a sectioned extension:

        rho(x) u      = [s(x), i(u)]
        theta(x,y) u  = {i(u), s(x), s(y)}

    Independent of the section because the kernel is abelian; validated
    against the recovered base data before being returned.
    """
    return _base_and_rep(ext, section or ext.canonical_section())[2]


def _defect_cocycle(ext: AbelianExtension, section: Section, base: LyAlgebra,
                    base_op: ReynoldsOperator, rep: Representation) -> ExtensionCocycle:
    """The defect cochain of :func:`extract_cocycle` over base data already
    read off the extension, re-checked to be a cocycle.

    The base brackets and operator are the projections of the total ones on
    section lifts, so each defect is v - s(project(v)) for a total vector v.
    """
    s = section.map
    s_img = [s.column(i) for i in range(ext.base_dim)]

    def defect(vec):
        return ext.module_coords(vec_sub(vec, s.apply(ext.project.apply(vec))))

    nu, psi = _bracket_tables(ext.total, s_img, defect)
    chi = Matrix.from_columns([defect(ext.total_op.matrix.apply(v)) for v in s_img],
                              ext.module_dim)
    cocycle = ExtensionCocycle(nu, psi, chi)

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
    a cocycle over the recovered base data.
    """
    section = section or ext.canonical_section()
    return _defect_cocycle(ext, section, *_base_and_rep(ext, section))


def to_block_form(ext: AbelianExtension) -> AbelianExtension:
    """Transport an extension to block coordinates on L (+) V.

    The change of basis stacks a section next to inject; afterwards the
    arrows are the canonical block maps.  An extension already in block
    form is returned as it is: its change of basis is the identity.
    """
    n, m = ext.base_dim, ext.module_dim
    inject_c, project_c = _canonical_arrows(n, m)
    if (ext.inject, ext.project) == (inject_c, project_c):
        return ext
    s = ext.canonical_section().map
    cols = [s.column(i) for i in range(n)] + [ext.inject.column(a) for a in range(m)]
    basis_change = Matrix.from_columns(cols, n + m)
    binv = inverse(basis_change)
    new_total = LyAlgebra(n + m, *_bracket_tables(ext.total, cols, binv.apply))
    new_op = ReynoldsOperator(binv @ ext.total_op.matrix @ basis_change,
                              ext.total_op.weight)
    return AbelianExtension(new_total, new_op, inject_c, project_c)


def extensions_equivalent(e1: AbelianExtension, e2: AbelianExtension) -> Matrix | None:
    """The equivalence x+u -> x + iota(x) + u when the cocycle classes agree,
    None otherwise.

    Both extensions are first moved to block form and must recover identical
    base data.  When a witness iota with d(iota) = c1 - c2 exists, the block
    map it defines is verified to preserve both brackets and the operator
    and to commute with the two arrows before being returned.
    """
    e1 = to_block_form(e1)
    e2 = to_block_form(e2)
    s1, s2 = e1.canonical_section(), e2.canonical_section()
    base, base_op, rep = _base_and_rep(e1, s1)
    b2, o2, r2 = _base_and_rep(e2, s2)
    if (base, base_op, rep.module_op) != (b2, o2, r2.module_op):
        raise IncompatibleData("extensions do not share base algebra/operators")
    if rep != r2:
        raise IncompatibleData("extensions do not induce the same representation")
    c1 = _defect_cocycle(e1, s1, base, base_op, rep).to_cochain()
    c2 = _defect_cocycle(e2, s2, base, base_op, rep).to_cochain()
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
