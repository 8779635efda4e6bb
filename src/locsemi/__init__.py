"""Partial multiplicative structures: checkers, constructions, paths, census."""

from .errors import (CapacityError, CompositionUndefined, DomainError,
                     InvariantError, MagmaError, NotAssociative, ParseError,
                     PreconditionError)
from .magma import (FinitePartialMagma, LocalitySet, Verdict, Witness,
                    full_relation_magma, parse_magma, serialize_magma)
from .checks import (ClassReport, check_polar_closure_subsets, classify,
                     find_identities, find_zeros, format_witness,
                     is_locality_homomorphism, is_locality_ideal,
                     is_locality_map, is_locality_semigroup,
                     is_left_locality_ideal, is_partial_semigroup,
                     is_refined_locality_semigroup, is_right_locality_ideal,
                     is_strong_locality_semigroup, is_sub_locality_semigroup,
                     is_transitive, render_verdict, replay_witness)
from .constructions import (SemigroupWithZero, adjoin_identity, adjoin_zero,
                            complete_to_semigroup_with_zero,
                            generated_sub_locality_semigroup,
                            is_strong_semigroup_with_zero,
                            parse_semigroup_with_zero, partial_from_semigroup,
                            serialize_semigroup_with_zero)
from .quiver import (Path, Quiver, compose, free_extension,
                     materialize_path_magma, parse_quiver, serialize_quiver,
                     verify_free_property)
from .predicates import (PredicateMagma, bounded_magma, coprime_magma,
                         coprime_with_zero, gcd, natural_multiplication,
                         powerset_magma, sampled_classify, sampled_verdict,
                         totient, totient_hom_check)
from .enumeration import (CensusRow, census, decode_magma, encode_magma,
                          find_witness, format_census_table, sample_census,
                          scan_flags, search_space_size)
from .fixtures import (fixture_kind, fixture_magma, fixture_names,
                       fixture_quiver, fixture_text)

__all__ = [name for name in dir() if not name.startswith("_")]
