"""Gorenstein-projective classification and singularity-category
descriptors for finite dimensional gentle algebras."""

from .quiver import (Arrow, Path, QuiverPresentation, QuiverError,
                     DSLSyntaxError, PresentationError, parse_presentation,
                     serialize_presentation, opposite, is_isomorphic,
                     canonical_key)
from .gentle import (GentleAlgebra, GentleViolation, NotGentleError,
                     BasisTooLargeError, CriticalCycle, validate_gentle,
                     gentle_violations, critical_cycles, cycle_of_arrow,
                     radical_summand_word, radical_summand_vertices)
from .linalg import Matrix, QQ, PrimeField, parse_field, intersect_subspaces
from .strings import (Letter, StringWord, BandWord, parse_letters,
                      check_string, is_valid_string, make_string, lazy_word,
                      directed_word, contains_peak, string_module, make_band,
                      band_module, enumerate_strings)
from .reps import (Representation, ModuleMap, ExtProfile, hom_basis, hom_dim,
                   top_and_radical, projective_cover, projective_rep,
                   radical_summand_rep, syzygy, is_projective, ext_profile,
                   embedding_obstruction, stable_hom_dim, module_signature,
                   injective_dimension, zero_representation, direct_sum,
                   regular_dim_at, hom_profile)
from .gp import (GPClassification, SingularityDescriptor, OracleCertificate,
                 StableCategoryTable, ComparisonReport, ClassificationMismatchError,
                 classify_gp, gp_oracle, singularity_descriptor,
                 stable_category_table, compare_derived_invariant,
                 classifier_membership, default_ext_bound)
from .surface import (Triangulation, TriangulationError, InnerTriangleReport,
                      InnerCountReport, parse_triangulation,
                      serialize_triangulation, make_triangulation,
                      inner_triangles, algebra_presentation,
                      algebra_from_triangulation, verify_inner_triangle_count)

__version__ = "0.1.0"
