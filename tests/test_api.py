"""The names exported from ``primeul`` and the options of each ``primeul``
subcommand are the API contract: adding or removing one is a deliberate
change made here and listed in CHANGES.md."""

import argparse
import types

import primeul
from primeul.cli import build_parser

EXPORTED = {
    # arrangements and their lattices of flats
    "Arrangement", "FlatLattice", "build_flats",
    "characteristic_polynomial", "count_regions_zaslavsky",
    "is_very_generic_vector", "product",
    # the four routes and their companions
    "UpperSetError", "cochar_via_halfspace", "cocharacteristic",
    "eulerian_poly", "find_very_generic", "peul_from_cochar",
    "primitive_eulerian_descents",
    "primitive_eulerian_mobius", "primitive_eulerian_recursive",
    # the fan of faces and the weak order
    "FanIndex", "enumerate_faces", "enumerate_regions", "is_sharp",
    "is_simplicial", "region_in_halfspace", "WeakOrder",
    # families and input parsing
    "braid", "generic_gn", "graphic", "parse_arrangement_file",
    "parse_family", "parse_vector", "rank2", "root_system", "type_b",
    "type_d", "type_dnk",
    # the strict-feasibility certificate
    "strict_feasible", "strict_feasible_point",
    # polynomials and real roots
    "IntPoly", "interlaces", "is_real_rooted",
}


def test_exported_names():
    names = {name for name, value in vars(primeul).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == EXPORTED



CLI_OPTIONS = {
    "poly": {"--family", "--file", "--which", "--method", "--v", "--json"},
    "verify": {"--max-rank", "--nmax", "--order", "--dn-max", "--long"},
    "table": {"--long"},
    "inspect": {"--family", "--file", "--v", "--json"},
}


def test_cli_options():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    options = {name: {s for action in p._actions for s in action.option_strings
                      if s not in ("-h", "--help")}
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS
