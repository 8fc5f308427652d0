"""Exact computational algebra for Lie-Yamaguti algebras with Reynolds
operators: axiom verification, the three cochain complexes, cohomology
dimensions, truncated formal deformations and abelian extensions.

Everything is computed over exact rationals; reruns are bit-identical.
"""

from .algebra import (
    LyAlgebra,
    abelian,
    apply_binary,
    apply_ternary,
    binary_from_sparse,
    bracket2,
    bracket3,
    from_leibniz,
    from_lie_algebra,
    from_reductive_pair,
    ternary_from_sparse,
    two_dim_example,
    verify_ly_axioms,
)
from .cohomology import (
    Cochain,
    RlyCochain,
    cochain_dim,
    cohomology_dims,
    cohomologous,
    coboundary_preimage,
    d_rly,
    delta,
    differential_matrix,
    is_coboundary,
    is_cocycle,
    partial,
    phi,
    rly_dim,
)
from .deformation import (
    FormalIsomorphism,
    TruncatedDeformation,
    apply_equivalence,
    infinitesimal,
    trivialize_first_order,
    verify_deformation,
)
from .errors import LyError
from .extension import (
    AbelianExtension,
    ExtensionCocycle,
    Section,
    build_extension,
    extensions_equivalent,
    extract_cocycle,
    extract_rep,
    semidirect_product,
)
from .linalg import (
    Matrix,
    Scalar,
    SubspaceBasis,
    format_rational,
    kernel_basis,
    parse_rational,
    quotient_dim,
    rank,
)
from .reporting import AxiomReport, Check, ComplexReport, OrderReport
from .representation import (
    Representation,
    adjoint_rep,
    d_map,
    direct_sum_rep,
    induced_rep,
    verify_rep,
    verify_reynolds_rep,
    zero_rep,
)
from .reynolds import (
    ReynoldsOperator,
    derivation_check,
    descendant_algebra,
    reynolds_from_derivation,
    scale_weight,
    verify_reynolds,
)

__version__ = "0.1.0"
