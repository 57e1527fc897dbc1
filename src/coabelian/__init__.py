"""Certified invariants of kernels of maps from products of surface groups
onto free abelian groups: exact finiteness type, first Betti number,
irreducibility, and Kaehlerness obstructions, plus generators for the
example families realizing every finiteness type."""

from .analyzer import (AnalysisReport, analyze, betti_kernel,
                       deficiency_profile, finiteness_type, fullness,
                       irreducibility, kahler_verdict, normalize,
                       projection_of_kernel, splitting_search, subdirectness)
from .forge import (generate_P_prime, make_degenerate_family,
                    make_extended_family, make_generic_family)
from .intmatrix import (IntMatrix, det, hermite_normal_form, hstack, rank,
                        smith_normal_form)
from .lattice import (Lattice, image_lattice, kernel_lattice, lattice_index,
                      preimage_lattice)
from .model import (CoverData, FamilySpec, ProductHom, SchemaError, VectorSet,
                    build_hom_from_family, check_property_P,
                    check_property_P_prime, parse_family, parse_hom,
                    serialize_family, serialize_hom)

__all__ = [
    "AnalysisReport", "CoverData", "FamilySpec", "IntMatrix", "Lattice",
    "ProductHom", "SchemaError", "VectorSet", "analyze", "betti_kernel",
    "build_hom_from_family", "check_property_P", "check_property_P_prime",
    "deficiency_profile", "det", "finiteness_type", "fullness",
    "generate_P_prime", "hermite_normal_form", "hstack", "image_lattice",
    "irreducibility", "kahler_verdict", "kernel_lattice", "lattice_index",
    "make_degenerate_family", "make_extended_family", "make_generic_family",
    "normalize", "parse_family", "parse_hom", "preimage_lattice",
    "projection_of_kernel", "rank", "serialize_family", "serialize_hom",
    "smith_normal_form", "splitting_search", "subdirectness",
]
