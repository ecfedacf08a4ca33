"""The compose fallback's walk as it was: the test oracle for the new one.

`_wild_union_fallback` builds the image pool's quotient basis and class
table once, permutes the table's columns for every ordering, and solves
a winner out of the pool's order again on its own basis.  This module
keeps the walk it replaced: every ordering builds its own
quotient_basis and reads its own local classes.  `place_solve` calls
the table solve the way the place-reading solve was called: on the
generators and the places, reading the classes itself.
"""

from __future__ import annotations

import itertools

from wildsets import equivalence_core
from wildsets.equivalence_core import (
    PreEquivalence,
    _sandwich_solve,
    extend_pre_equivalence,
    quotient_basis,
)
from wildsets.errors import SearchExhausted, VerificationError
from wildsets.local_symbols import local_square_class


def class_table(elements, places) -> list:
    return [[local_square_class(b, P) for P in places] for b in elements]


def place_solve(model, places, images, local_maps, src_gens, dst_gens):
    """_sandwich_solve on the local classes of both generator lists."""
    return _sandwich_solve(model, local_maps, class_table(src_gens, places),
                           class_table(dst_gens, images), dst_gens)


def wild_union_fallback(model, places, images, maps, degree_cap: int):
    """Fresh certificate on the wild part, one quotient basis per ordering."""
    keep = [j for j, m in enumerate(maps) if m.is_wild]
    if not keep:
        raise SearchExhausted(
            "the composite data cannot be realized and has no wild part "
            "to rebuild")
    wild_places = tuple(places[j] for j in keep)
    wild_maps = tuple(maps[j] for j in keep)
    pool = tuple(images[j] for j in keep)
    src_gens = quotient_basis(model, wild_places)[0]
    for cand in itertools.islice(itertools.permutations(pool),
                                 equivalence_core.PERMUTATION_CAP):
        dst_gens = quotient_basis(model, cand)[0]
        try:
            final_maps, gen_images = place_solve(
                model, wild_places, cand, wild_maps, src_gens, dst_gens)
        except (VerificationError, SearchExhausted):
            continue
        pe = PreEquivalence(model, wild_places, cand, src_gens, gen_images,
                            final_maps)
        return extend_pre_equivalence(pe, degree_cap)
    raise SearchExhausted(
        "no matching of the wild locus {%s} into its image pool realizes "
        "the composed local maps within the search budget"
        % ", ".join(str(P) for P in wild_places))
