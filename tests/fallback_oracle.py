"""Compose's two glues as they were: the test oracle for `_realize`.

`compose` realizes a composite through one function, `_realize`: one
source quotient basis, one class table permuted for every ordering of
the image pool, a winner out of the table's order solved again on its
own basis, and the solved data returned as is at class rank 0 and
extended otherwise.  This module keeps the two routes it replaced.
`rigid_glue` is the whole-domain glue: Sing(S) of the places, and of
the images when they differ, solved once in the recorded order.
`wild_union_fallback` is the wild-locus walk as it was before one
table served every ordering: each ordering builds its own
quotient_basis, and the winner always goes through
extend_pre_equivalence.  `place_solve` calls the table solve the way
the place-reading solve was called: on the generators and the places,
reading the classes itself.  The walks keep the bounds they had: at most
ORDERING_CAP orderings of a pool, and at most TWIST_PATTERNS twist
patterns in one solve, each bound on its own.
"""

from __future__ import annotations

import itertools

from wildsets.equivalence_core import (
    PreEquivalence,
    _sandwich_solve,
    extend_pre_equivalence,
    quotient_basis,
)
from wildsets.errors import SearchExhausted, VerificationError
from wildsets.local_symbols import local_square_class
from wildsets.square_class_spaces import sing_space

ORDERING_CAP = 40320  # 8!
TWIST_PATTERNS = 1 << 20


def class_table(elements, places) -> list:
    return [[local_square_class(b, P) for P in places] for b in elements]


def place_solve(model, places, images, local_maps, src_gens, dst_gens,
                patterns: int = TWIST_PATTERNS):
    """_sandwich_solve on the local classes of both generator lists.

    Its twist walk raises SearchExhausted past the given number of
    patterns.
    """
    examined = itertools.count(1)

    def charge():
        if next(examined) > patterns:
            raise SearchExhausted("no consistent tame adjustment among the "
                                  "first %d twist patterns" % patterns)

    return _sandwich_solve(model, local_maps, class_table(src_gens, places),
                           class_table(dst_gens, images), dst_gens, charge)


def rigid_glue(model, places, images, maps) -> PreEquivalence:
    """The composite solved on the whole domain, images in their order.

    Raises VerificationError on a repeated image or a prescription no
    twist repairs, and SearchExhausted past TWIST_PATTERNS; compose
    then went on to the wild locus.
    """
    if len(set(images)) != len(images):
        raise VerificationError("the composite repeats an image")
    src = sing_space(model, places).generators
    dst = src if images == places else sing_space(model, images).generators
    final_maps, basis_images = place_solve(model, places, images, maps,
                                           src, dst)
    return PreEquivalence(model, places, images, src, basis_images,
                          final_maps)


def wild_union_fallback(model, places, images, maps):
    """Fresh certificate on the wild part, one quotient basis per ordering."""
    keep = [j for j, m in enumerate(maps) if m.is_wild]
    if not keep:
        raise SearchExhausted(
            "the composite data cannot be realized and has no wild part "
            "to rebuild")
    wild_places = tuple(places[j] for j in keep)
    wild_maps = tuple(maps[j] for j in keep)
    pool = tuple(images[j] for j in keep)
    exhausted = SearchExhausted(
        "no matching of the wild locus {%s} into its image pool realizes "
        "the composed local maps within the search budget"
        % ", ".join(str(P) for P in wild_places))
    if len(set(pool)) != len(pool):
        raise exhausted
    src_gens = quotient_basis(model, wild_places)[0]
    for cand in itertools.islice(itertools.permutations(pool), ORDERING_CAP):
        dst_gens = quotient_basis(model, cand)[0]
        try:
            final_maps, gen_images = place_solve(
                model, wild_places, cand, wild_maps, src_gens, dst_gens)
        except (VerificationError, SearchExhausted):
            continue
        pe = PreEquivalence(model, wild_places, cand, src_gens, gen_images,
                            final_maps)
        return extend_pre_equivalence(pe)
    raise exhausted
