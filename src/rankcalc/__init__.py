"""Exact combinatorics of Grassmannian rank varieties.

The package computes, entirely in exact integer arithmetic: partitions and
their tableau counts, Littlewood-Richardson coefficients and symmetric
group characters; sparse symmetric-function expansions with Schur/monomial
conversion; ordinary and (bounded) affine permutations with their Stanley
symmetric functions; rank sets, their bounded affine permutations, and an
ordinary permutation representing each rank variety class; the Schubert
basis of the cohomology of Gr(k, n); diagram Specht module decompositions
with a polytabloid brute-force oracle; and a verification suite that
replays a documented counterexample to the predicted diagram class.
clear_caches() empties every memo table.
"""

import sys

from .errors import (
    ContextMismatch,
    EmptyRankSet,
    InvalidRankSet,
    NegativeMultiplicity,
    NotBounded,
    NotHomogeneous,
    NotRankSetShaped,
    ParseError,
    RankCalcError,
    ShapeTooLarge,
    SizeMismatch,
    TooLarge,
    UnsupportedDiagram,
)
from .partitions import (
    Partition,
    RectangleContext,
    all_partitions,
    complement,
    conjugate,
    lr_coefficient,
    mn_character,
    partition,
    syt_count,
)
from .symfunc import (
    MonomialExpansion,
    SchurExpansion,
    kostka,
    monomial_to_schur,
    parse_expansion,
    schur_product,
    schur_to_monomial,
)
from .perms import (
    AffinePermutation,
    Permutation,
    affine_stanley,
    av,
    direct_sum,
    embed,
    evaluate,
    is_bounded,
    length,
    northeast_count,
    stanley,
    tau_shift,
)
from .rankset import (
    RankSet,
    affine_of_rank_set,
    all_rank_sets,
    codimension,
    containment_count,
    dimension,
    minimal_stretch,
    rank_set,
    rank_set_of_affine,
    rank_set_of_permutation,
    stretch,
    w_of_rank_set,
)
from .grassmann import (
    SchubertClass,
    class_degree,
    class_product,
    phi,
    point_class,
    schubert_class,
    skew_complement_class,
)
from .diagrams import (
    Diagram,
    complement_rotate,
    degeneration_check,
    diagram,
    diagram_of_permutation,
    james_peel_move,
    product_diagram,
    specht_bruteforce,
    specht_dim,
    specht_schur,
    staircase_pattern,
)
from .verify import CheckReport, check_class_bound, replay_counterexample, run_all


def clear_caches() -> None:
    """Empty every memo table: each ``cache_clear`` in a loaded rankcalc module."""
    for name, module in list(sys.modules.items()):
        if name.startswith("rankcalc."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


__version__ = "0.1.0"
