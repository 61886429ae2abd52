"""
Constant-dimension subspace codes over GF(q): exact field and subspace
arithmetic, rank-metric machinery, explicit code constructions with
independent brute-force verification, and a provenance-carrying bound
engine for maximum code sizes.
"""

from .gfq import GF, FieldSpec
from .qcombi import gauss_binomial, gauss_int
from .spaces import (
    FerrersDiagram,
    MatGF,
    Subspace,
    dual,
    enumerate_grassmannian,
    ferrers_of,
    hamming_distance,
    injection_distance,
    rank,
    rref,
    subspace_distance,
)
from .divisible import divisible_exists, sharp_ceil, sharp_floor, sqr_bases, sqr_expand
from .rankmetric import (
    RankCode,
    SumRankCode,
    fdrm_construct,
    fdrm_upper_bound,
    gabidulin,
    mrd_size,
    rank_distance,
    rank_distribution,
)
from .constructions import (
    Cdc,
    DPacking,
    coset_construction,
    echelon_ferrers,
    improved_linkage,
    lift,
    lifted_mrd,
    linkage,
    partial_spread,
    skeleton_greedy,
)
from .provenance import BoundResult
from .bounds import BoundEngine, anticode, best_lower, best_upper, lp_bound, singleton, sphere_packing
from .verify import min_distance

__version__ = "0.1.0"
