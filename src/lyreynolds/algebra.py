"""Finite-dimensional Lie-Yamaguti algebras from structure constants.

An algebra is a pair of tensors over a basis e_0..e_{n-1}:

    binary[i][j][k]     with  [e_i, e_j]      = sum_k binary[i][j][k] e_k
    ternary[i][j][k][l] with  {e_i, e_j, e_k} = sum_l ternary[i][j][k][l] e_l

Construction enforces the two antisymmetries (binary in both slots, ternary
in its first two); the four compatibility axioms are checked on demand by
:func:`verify_ly_axioms`.  Checking on basis tuples is complete because every
axiom is multilinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .errors import (
    DimMismatch,
    InvalidStructure,
    NotLeibniz,
    NotLieAlgebra,
    NotReductive,
)
from .linalg import (
    Vector,
    is_zero_vector,
    unit_vector,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .reporting import AxiomReport, first_failure

BinaryTensor = tuple  # t[i][j] is a Vector of length dim
TernaryTensor = tuple  # t[i][j][k] is a Vector of length dim


def _freeze(data, dim: int, depth: int):
    """``data`` as nested tuples of Fractions: ``depth`` levels of basis
    indices (2 for a binary tensor, 3 for a ternary one) above entries that
    must be vectors of length ``dim``."""
    def frozen(node, level):
        if level == depth:
            return tuple(Fraction(x) for x in node)
        return tuple(frozen(node[i], level + 1) for i in range(dim))

    out = frozen(data, 0)
    for idx in product(range(dim), repeat=depth):
        entry = out
        for i in idx:
            entry = entry[i]
        if len(entry) != dim:
            raise DimMismatch(
                f"{('binary', 'ternary')[depth - 2]} tensor entry of wrong length")
    return out


def _antisymmetry_failure(tensor, dim: int, depth: int):
    """First basis tuple (i, j, ...) of length ``depth``, in product order,
    at which ``tensor`` is not antisymmetric in its leading index pair, or
    None when it is antisymmetric everywhere."""
    for idx in product(range(dim), repeat=depth):
        a, b = tensor[idx[0]][idx[1]], tensor[idx[1]][idx[0]]
        for k in idx[2:]:
            a, b = a[k], b[k]
        if any(x != -y for x, y in zip(a, b)):
            return idx
    return None


def zero_binary(dim: int) -> BinaryTensor:
    z = zero_vector(dim)
    return tuple(tuple(z for _ in range(dim)) for _ in range(dim))


def zero_ternary(dim: int) -> TernaryTensor:
    z = zero_vector(dim)
    return tuple(tuple(tuple(z for _ in range(dim)) for _ in range(dim)) for _ in range(dim))


def _from_sparse(dim: int, entries, arity: int):
    """Dense tensor with ``arity`` indices from {index tuple: coefficient},
    filled in antisymmetrically in the first two indices."""
    cells: dict[tuple[int, ...], Fraction] = {}
    for idx, c in dict(entries).items():
        idx = tuple(idx)
        if len(idx) != arity:
            raise DimMismatch(f"index {idx} needs {arity} entries")
        c = Fraction(c)
        swapped = (idx[1], idx[0]) + idx[2:]
        for key in (idx, swapped):
            if not all(0 <= t < dim for t in key):
                raise DimMismatch(f"index {key} out of range for dim {dim}")
        for key, val in ((idx, c), (swapped, -c)):
            if key in cells and cells[key] != val:
                raise InvalidStructure(
                    f"inconsistent antisymmetric pair at {key}: "
                    f"{cells[key]} vs {val}")
            cells[key] = val

    def dense(prefix):
        if len(prefix) == arity:
            return cells.get(prefix, Fraction(0))
        return tuple(dense(prefix + (t,)) for t in range(dim))

    return dense(())


def binary_from_sparse(dim: int, entries) -> BinaryTensor:
    """Build b[i][j][k] from {(i, j, k): coefficient}.

    Unspecified entries are zero.  The antisymmetric image of every entry is
    filled in automatically; supplying both (i,j,k) and (j,i,k) with values
    that are not negatives of each other is rejected.
    """
    return _from_sparse(dim, entries, 3)


def ternary_from_sparse(dim: int, entries) -> TernaryTensor:
    """Build t[i][j][k][l] from {(i, j, k, l): coefficient}; antisymmetric in
    the first two indices, same consistency rule as :func:`binary_from_sparse`."""
    return _from_sparse(dim, entries, 4)


def apply_binary(tensor: BinaryTensor, x, y) -> Vector:
    """Bilinear extension of a binary structure tensor."""
    dim = len(tensor)
    out = list(zero_vector(dim))
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = tensor[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, v in enumerate(ti[j]):
                if v:
                    out[k] += c * v
    return tuple(out)


def apply_ternary(tensor: TernaryTensor, x, y, z) -> Vector:
    """Trilinear extension of a ternary structure tensor."""
    dim = len(tensor)
    out = list(zero_vector(dim))
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = tensor[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            tij = ti[j]
            cij = xi * yj
            for k, zk in enumerate(z):
                if not zk:
                    continue
                c = cij * zk
                for l, v in enumerate(tij[k]):
                    if v:
                        out[l] += c * v
    return tuple(out)


@dataclass(frozen=True)
class LyAlgebra:
    """Structure constants of a Lie-Yamaguti algebra plus optional labels."""

    dim: int
    binary: BinaryTensor
    ternary: TernaryTensor
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "binary", _freeze(self.binary, n, 2))
        object.__setattr__(self, "ternary", _freeze(self.ternary, n, 3))
        if self.labels is not None and len(self.labels) != n:
            raise DimMismatch("label count != dim")
        bad = _antisymmetry_failure(self.binary, n, 2)
        if bad is not None:
            i, j = bad
            raise InvalidStructure(f"binary constants not antisymmetric at ({i},{j})")
        bad = _antisymmetry_failure(self.ternary, n, 3)
        if bad is not None:
            i, j, k = bad
            raise InvalidStructure(
                f"ternary constants not antisymmetric in first two slots at ({i},{j},{k})")

    def basis(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i + 1}"


def bracket2(algebra: LyAlgebra, x, y) -> Vector:
    """[x, y] by bilinear extension of the structure constants."""
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise DimMismatch("element coordinates do not match algebra dim")
    return apply_binary(algebra.binary, x, y)


def bracket3(algebra: LyAlgebra, x, y, z) -> Vector:
    """{x, y, z} by trilinear extension of the structure constants."""
    if any(len(v) != algebra.dim for v in (x, y, z)):
        raise DimMismatch("element coordinates do not match algebra dim")
    return apply_ternary(algebra.ternary, x, y, z)


def _cyclic(triple):
    x, y, z = triple
    return ((x, y, z), (z, x, y), (y, z, x))


def _ly_identities(F, G, n: int):
    """LY1-LY6 at order ``n`` of the coefficient series F_0, F_1, ... (binary
    tensors) and G_0, G_1, ... (ternary tensors), as ``(arity, residual)``
    pairs.  A residual maps a basis tuple to the order-n coefficient of
    LHS - RHS, each product summed over the splittings i + (n - i).

    Order 0 of ``((binary,), (ternary,))`` is the undeformed algebra, and a
    deformation's order n is the same identity at higher order, which is why
    the algebra verifier and the deformation verifier share this battery.
    """
    dim = len(F[0])
    unit = [unit_vector(dim, x) for x in range(dim)]

    def cyclic_binary(x, y, z):
        acc = zero_vector(dim)
        for (a, b, c) in _cyclic((x, y, z)):
            for i in range(n + 1):
                acc = vec_add(acc, apply_binary(F[i], F[n - i][a][b], unit[c]))
            acc = vec_add(acc, G[n][a][b][c])
        return acc

    def cyclic_mixed(x, y, z, a):
        acc = zero_vector(dim)
        for (p, q, r) in _cyclic((x, y, z)):
            for i in range(n + 1):
                acc = vec_add(acc, apply_ternary(G[i], F[n - i][p][q], unit[r], unit[a]))
        return acc

    def derivation_binary(a, b, x, y):
        acc = zero_vector(dim)
        for i in range(n + 1):
            acc = vec_add(acc, apply_ternary(G[i], unit[a], unit[b], F[n - i][x][y]))
            acc = vec_sub(acc, apply_binary(F[i], G[n - i][a][b][x], unit[y]))
            acc = vec_sub(acc, apply_binary(F[i], unit[x], G[n - i][a][b][y]))
        return acc

    def derivation_ternary(a, b, x, y, z):
        acc = zero_vector(dim)
        for i in range(n + 1):
            acc = vec_add(acc, apply_ternary(G[i], unit[a], unit[b], G[n - i][x][y][z]))
            acc = vec_sub(acc, apply_ternary(G[i], G[n - i][a][b][x], unit[y], unit[z]))
            acc = vec_sub(acc, apply_ternary(G[i], unit[x], G[n - i][a][b][y], unit[z]))
            acc = vec_sub(acc, apply_ternary(G[i], unit[x], unit[y], G[n - i][a][b][z]))
        return acc

    return ((2, lambda i, j: vec_add(F[n][i][j], F[n][j][i])),
            (3, lambda i, j, k: vec_add(G[n][i][j][k], G[n][j][i][k])),
            (3, cyclic_binary), (4, cyclic_mixed),
            (4, derivation_binary), (5, derivation_ternary))


def _axiom_report(names, identities, dim: int) -> AxiomReport:
    """One check per named ``(arity, residual)`` identity over all basis
    tuples of its arity."""
    return AxiomReport(tuple(
        first_failure(name, product(range(dim), repeat=arity), fn, is_zero_vector)
        for name, (arity, fn) in zip(names, identities)))


def verify_ly_axioms(algebra: LyAlgebra) -> AxiomReport:
    """Evaluate the six defining axioms on all basis tuples.

    The first two are antisymmetries (re-checked here even though
    construction enforces them); the remaining four are the compatibility
    identities between the two brackets.  Each check reports at most one
    witness: the lexicographically first failing tuple.
    """
    return _axiom_report(("LY1", "LY2", "LY3", "LY4", "LY5", "LY6"),
                         _ly_identities((algebra.binary,), (algebra.ternary,), 0),
                         algebra.dim)


def _morphism_failure(phi, source: LyAlgebra, target: LyAlgebra):
    """First basis tuple at which the linear map ``phi`` fails to carry a
    bracket of ``source`` to the same bracket of ``target``: the pairs (i, j)
    of the binary bracket come before the triples (i, j, k) of the ternary
    one.  None when ``phi`` is a morphism of both brackets."""
    n = source.dim
    img = [phi.column(i) for i in range(n)]
    for i, j in product(range(n), repeat=2):
        if phi.apply(source.binary[i][j]) != apply_binary(target.binary, img[i], img[j]):
            return (i, j)
    for i, j, k in product(range(n), repeat=3):
        if phi.apply(source.ternary[i][j][k]) != \
                apply_ternary(target.ternary, img[i], img[j], img[k]):
            return (i, j, k)
    return None


def _check_jacobi(binary: BinaryTensor, dim: int):
    bad = _antisymmetry_failure(binary, dim, 2)
    if bad is not None:
        i, j = bad
        raise NotLieAlgebra(f"bracket not antisymmetric at ({i},{j})")
    # Jacobi is LY3 of the algebra with the zero ternary bracket
    check, = _axiom_report(("Jacobi",), _ly_identities(
        (binary,), (zero_ternary(dim),), 0)[2:3], dim).checks
    if not check.passed:
        i, j, k = check.witness
        raise NotLieAlgebra(f"Jacobi fails at basis triple ({i},{j},{k}): {check.residual}")


def from_lie_algebra(binary, labels=None) -> LyAlgebra:
    """Lie algebra as a Lie-Yamaguti algebra: {x,y,z} = [[x,y],z].

    The binary constants must satisfy antisymmetry and Jacobi (verified on
    basis triples); otherwise NotLieAlgebra is raised with the witness.
    """
    dim = len(binary)
    binary = _freeze(binary, dim, 2)
    _check_jacobi(binary, dim)
    unit = partial(unit_vector, dim)
    ternary = tuple(
        tuple(
            tuple(apply_binary(binary, binary[i][j], unit(k)) for k in range(dim))
            for j in range(dim))
        for i in range(dim))
    return LyAlgebra(dim, binary, ternary, labels)


def from_leibniz(star, labels=None) -> LyAlgebra:
    """Left Leibniz algebra as a Lie-Yamaguti algebra.

    Brackets: [x,y] = x*y - y*x and {x,y,z} = -(x*y)*z.  The left Leibniz
    identity x*(y*z) = (x*y)*z + y*(x*z) is verified on basis triples first;
    it is what makes the ternary bracket antisymmetric in its first slots.
    """
    dim = len(star)
    star = _freeze(star, dim, 2)
    unit = partial(unit_vector, dim)
    for i, j, k in product(range(dim), repeat=3):
        lhs = apply_binary(star, unit(i), star[j][k])
        rhs = vec_add(apply_binary(star, star[i][j], unit(k)),
                      apply_binary(star, unit(j), star[i][k]))
        if lhs != rhs:
            raise NotLeibniz(
                f"left Leibniz identity fails at basis triple ({i},{j},{k})")
    binary = tuple(
        tuple(vec_sub(star[i][j], star[j][i]) for j in range(dim))
        for i in range(dim))
    ternary = tuple(
        tuple(
            tuple(vec_scale(-1, apply_binary(star, star[i][j], unit(k)))
                  for k in range(dim))
            for j in range(dim))
        for i in range(dim))
    return LyAlgebra(dim, binary, ternary, labels)


def from_reductive_pair(lie_binary, n_indices, m_indices, labels=None) -> LyAlgebra:
    """Lie-Yamaguti algebra on the complement M of a reductive splitting.

    Requires lie_binary to be a Lie algebra split as L = N (+) M with
    [N,N] in N and [N,M] in M (both verified on basis pairs).  Brackets on M:
    [x,y]_M = pi_M([x,y]) and {x,y,z}_M = [pi_N([x,y]), z].
    """
    dim = len(lie_binary)
    lie_binary = _freeze(lie_binary, dim, 2)
    _check_jacobi(lie_binary, dim)
    n_indices = list(n_indices)
    m_indices = list(m_indices)
    if sorted(n_indices + m_indices) != list(range(dim)):
        raise DimMismatch("N and M indices must partition the basis")
    n_set = set(n_indices)
    for i in n_indices:
        for j in n_indices:
            if any(lie_binary[i][j][k] != 0 for k in range(dim) if k not in n_set):
                raise NotReductive(f"[N,N] not in N at basis pair ({i},{j})")
        for j in m_indices:
            if any(lie_binary[i][j][k] != 0 for k in range(dim) if k in n_set):
                raise NotReductive(f"[N,M] not in M at basis pair ({i},{j})")

    m = len(m_indices)
    unit = partial(unit_vector, dim)

    def pi_m(v):
        return tuple(v[i] for i in m_indices)

    def pi_n_full(v):
        return tuple(v[i] if i in n_set else Fraction(0) for i in range(dim))

    binary = tuple(
        tuple(pi_m(lie_binary[m_indices[a]][m_indices[b]]) for b in range(m))
        for a in range(m))
    ternary = tuple(
        tuple(
            tuple(pi_m(apply_binary(
                lie_binary,
                pi_n_full(lie_binary[m_indices[a]][m_indices[b]]),
                unit(m_indices[c])))
                for c in range(m))
            for b in range(m))
        for a in range(m))
    if labels is None and m:
        labels = tuple(f"e{i + 1}" for i in m_indices)
    return LyAlgebra(m, binary, ternary, labels)


def abelian(dim: int, labels=None) -> LyAlgebra:
    """Both brackets identically zero."""
    return LyAlgebra(dim, zero_binary(dim), zero_ternary(dim), labels)


def two_dim_example(labels=("e1", "e2")) -> LyAlgebra:
    """The 2-dimensional algebra with [e1,e2] = e1 and {e1,e2,e2} = e1.

    The smallest Lie-Yamaguti algebra with both brackets nonzero; used as
    the canonical fixture throughout the tests and sample files.
    """
    binary = binary_from_sparse(2, {(0, 1, 0): 1})
    ternary = ternary_from_sparse(2, {(0, 1, 1, 0): 1})
    return LyAlgebra(2, binary, ternary, tuple(labels))
