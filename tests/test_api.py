"""The names exported from ``primeul`` are the API contract: adding or
removing one is a deliberate change made here and listed in CHANGES.md."""

import types

import primeul

EXPORTED = {
    # arrangements and their lattices of flats
    "Arrangement", "Flat", "FlatLattice", "Hyperplane", "build_flats",
    "characteristic_polynomial", "count_regions_zaslavsky", "essentialize",
    "is_very_generic_vector", "localization", "product", "restriction",
    # exponential generating series
    "TruncatedEgf", "egf_div", "egf_exp", "egf_log", "egf_mul", "egf_sqrt",
    # the four routes and their companions
    "UpperSetError", "cochar_via_halfspace", "cocharacteristic",
    "eulerian_poly", "find_very_generic", "h_poly_relation_check",
    "peul_from_cochar", "primitive_eulerian_descents",
    "primitive_eulerian_mobius", "primitive_eulerian_recursive",
    # the fan of faces and the weak order
    "FanIndex", "enumerate_faces", "enumerate_regions", "faces_in_halfspace",
    "is_sharp", "is_simplicial", "opposite", "rays_of_region",
    "region_in_halfspace", "separation_set", "tits_product", "WeakOrder",
    "descent_set", "top_star",
    # families and input parsing
    "braid", "generic_gn", "graphic", "parse_arrangement_file",
    "parse_family", "parse_vector", "rank2", "root_system", "type_b",
    "type_d", "type_dnk",
    # the strict-feasibility certificate
    "strict_feasible", "strict_feasible_point",
    # polynomials, subspaces and real roots
    "IntPoly", "Subspace", "interlaces", "is_real_rooted", "real_root_count",
}


def test_exported_names():
    names = {name for name, value in vars(primeul).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == EXPORTED

