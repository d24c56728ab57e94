"""Exact toolkit for t-intersecting families over partitioned ground sets."""

from .core import (
    Error,
    InvalidParametersError,
    InstanceTooLargeError,
    EmptyFamilyError,
    HypothesisViolationError,
    NoWalkError,
    InvariantError,
    GroundSet,
    Family,
    ProfileSet,
    binom,
    mask_of,
    elements_of,
    block_size,
    enumerate_block,
    union_size,
    enumerate_profile_union,
    quota_size,
    enumerate_quota,
    trivial_star,
    star_size,
    format_family,
    parse_family,
    write_family,
    read_family,
)
from .bounds import (
    delsarte_bound,
    exchange_optimal,
    hypothesis_flags,
    max_star_size,
    max_union_star_size,
    min_core_overlap,
    optimal_t_distributions,
    prefix_core,
    ratio_bound,
    star_density,
)
from .kneser import KneserParams, find_walk, is_connected
from .search import (
    SearchResult,
    brute_force_max,
    check_block_maximum,
    check_quota_family,
    max_t_intersecting,
)
from .shifting import (
    compress_family,
    compress_member,
    is_l_shifted,
    is_shifted,
    shift_closure,
    simultaneous_closure,
)
from .verify import (
    are_cross_t_intersecting,
    check_partwise_prefix_intersection,
    check_prefix_intersection,
    check_star_preservation,
    is_full_t_star,
    is_t_intersecting,
)

__version__ = "0.1.0"
