"""Exact Eulerian-type polynomials of central hyperplane arrangements.

Computes the primitive Eulerian polynomial of a central real arrangement by
four independent routes (lattice Mobius sum, deletion recursion, generic
halfspace face counts, descent statistics over the weak order), together
with the cocharacteristic and characteristic polynomials, signed-permutation
statistics for the classical reflection families with their closed forms
and generating-function identities, and exact real-rootedness and
interlacing tests.
"""

from .arrangement import (Arrangement, FlatLattice, build_flats,
                          characteristic_polynomial, count_regions_zaslavsky,
                          find_very_generic, is_very_generic_vector, product)
from .eulerpoly import (UpperSetError, cocharacteristic, cochar_via_halfspace,
                        eulerian_poly, peul_from_cochar,
                        primitive_eulerian_descents,
                        primitive_eulerian_mobius,
                        primitive_eulerian_recursive)
from .faces import (FanIndex, WeakOrder, enumerate_faces, enumerate_regions,
                    is_sharp, is_simplicial, region_in_halfspace)
from .families import (braid, generic_gn, graphic, parse_arrangement_file,
                       parse_family, parse_vector, rank2, root_system, type_b,
                       type_d, type_dnk)
from .feasibility import strict_feasible, strict_feasible_point
from .intpoly import IntPoly
from .roots import interlaces, is_real_rooted

__version__ = "0.1.0"
