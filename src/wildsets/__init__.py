"""Square classes, Hilbert symbols and wild sets over global function fields.

The package works with two kinds of base curve over an odd finite field
F_q: the projective line (function field F_q(t)) and an odd-degree
elliptic model y^2 = f(t).  On top of place/valuation arithmetic it
computes local square classes, tame Hilbert symbols, 2-ranks of Picard
groups and the groups of "singular" elements (even valuation outside a
finite set), and it builds and verifies finite certificates for
self-equivalences of the field whose wild locus is a prescribed set.
"""

from __future__ import annotations

from .base_algebra import GF
from .constructions import (
    construct_general,
    construct_rank0,
    construct_rank1,
    construct_rank1_pair,
    construct_rank1_triple,
)
from .elliptic_curve import EllipticModel
from .equivalence_core import (
    PreEquivalence,
    WildSetCertificate,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_necessary_condition,
    compose,
    extend_pre_equivalence,
    verify_pre_equivalence,
    verify_small_equivalence,
)
from .errors import (
    HypothesisError,
    SearchExhausted,
    VerificationError,
    WildSetsError,
)
from .function_field import Divisor
from .local_symbols import (
    LocalMap,
    hilbert_symbol,
    local_square_class,
    minus_one_is_square,
    reciprocity_product,
)
from .projective_line import ProjectiveLine
from .square_class_spaces import (
    check_lin_dep_lemma,
    check_pic_rank_formula,
    delta_space,
    g_rank,
    sing_space,
    smile,
)

__all__ = [
    "Divisor",
    "EllipticModel",
    "GF",
    "HypothesisError",
    "LocalMap",
    "PreEquivalence",
    "ProjectiveLine",
    "SearchExhausted",
    "VerificationError",
    "WildSetCertificate",
    "WildSetsError",
    "certificate_from_json",
    "certificate_to_json",
    "certify",
    "check_lin_dep_lemma",
    "check_necessary_condition",
    "check_pic_rank_formula",
    "compose",
    "construct_general",
    "construct_rank0",
    "construct_rank1",
    "construct_rank1_pair",
    "construct_rank1_triple",
    "delta_space",
    "extend_pre_equivalence",
    "g_rank",
    "hilbert_symbol",
    "local_square_class",
    "minus_one_is_square",
    "reciprocity_product",
    "sing_space",
    "smile",
    "verify_pre_equivalence",
    "verify_small_equivalence",
]

__version__ = "0.1.0"
