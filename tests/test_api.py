import types

import lyreynolds

PUBLIC_NAMES = {
    "AbelianExtension", "AxiomReport", "Check", "Cochain", "ComplexReport",
    "ExtensionCocycle", "FormalIsomorphism", "LyAlgebra", "LyError", "Matrix",
    "OrderReport", "Representation", "ReynoldsOperator", "RlyCochain", "Scalar",
    "Section", "SubspaceBasis", "TruncatedDeformation", "abelian", "adjoint_rep",
    "apply_binary", "apply_equivalence", "apply_ternary", "binary_from_sparse",
    "bracket2", "bracket3", "build_extension", "coboundary_preimage", "cochain_dim",
    "cohomologous", "cohomology_dims", "d_map", "d_rly", "delta", "derivation_check",
    "descendant_algebra", "differential_matrix", "direct_sum_rep",
    "extensions_equivalent", "extract_cocycle", "extract_rep", "format_rational",
    "from_leibniz", "from_lie_algebra", "from_reductive_pair", "induced_rep",
    "infinitesimal", "is_coboundary", "is_cocycle", "kernel_basis", "parse_rational",
    "partial", "phi", "quotient_dim", "rank", "reynolds_from_derivation", "rly_dim",
    "scale_weight", "semidirect_product", "ternary_from_sparse",
    "trivialize_first_order", "two_dim_example", "verify_deformation",
    "verify_ly_axioms", "verify_rep", "verify_reynolds", "verify_reynolds_rep",
    "zero_rep",
}


def test_public_names_are_pinned():
    # submodules show up as attributes once imported, so they are left out
    exported = {name for name, value in vars(lyreynolds).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
