"""Gorenstein-projective classification and singularity-category
descriptors for finite dimensional gentle algebras."""

from .quiver import (Arrow, QuiverPresentation, QuiverError, InputError,
                     DSLSyntaxError, PresentationError, parse_presentation,
                     serialize_presentation, opposite)
from .gentle import (GentleAlgebra, GentleViolation, NotGentleError,
                     BasisTooLargeError, CriticalCycle, validate_gentle,
                     gentle_violations, critical_cycles,
                     radical_summand_word)
from .linalg import Matrix, QQ, parse_field
from .strings import (Letter, StringWord, parse_letters, make_string,
                      lazy_word, enumerate_strings)
from .reps import (Representation, ModuleMap, ExtProfile, hom_dim,
                   string_module, projective_cover, projective_rep,
                   gorenstein_dimension, radical_summand_rep, syzygy,
                   resolution, ext_profile, embedding_obstruction,
                   InternalError, injective_dimension, direct_sum, regular_rep,
                   Coresolution, isomorphism, injective_coresolution)
from .gp import (OracleCertificate, StableCategoryTable,
                 ClassificationMismatchError, gp_oracle,
                 singularity_descriptor, stable_category_table,
                 classified_words)
from .surface import (Triangulation, TriangulationError,
                      InnerCountReport, parse_triangulation,
                      serialize_triangulation, make_triangulation,
                      inner_triangles, algebra_presentation,
                      algebra_from_triangulation, verify_inner_triangle_count)

__version__ = "0.1.0"
