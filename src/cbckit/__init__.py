"""Combinatorial batch codes: construction, verification, bounds, and search.

A layout stores n items on m servers with replication only; it is valid
for batch size k when any k items can be fetched reading at most one item
per server.  This package builds such layouts, certifies them against
Hall's condition, evaluates the known storage bounds, and brute-forces
ground truth on tiny instances.
"""

from .bounds import (
    BoundResult,
    b_value,
    inequality_slack,
    known_n,
    lower_bound,
    u_value,
)
from .construct import (
    construct_best,
    construct_large_n,
    construct_m_equals_k,
    construct_m_plus_1,
    construct_range_a,
    construct_range_b,
    construct_trivial,
    construct_uniform,
)
from .core import (
    Params,
    SetSystem,
    parse,
    serialize,
    total_storage,
)
from .cwc import (
    ConstantWeightCode,
    best_d4_code,
    graham_sloane_d4,
)
from .hall import (
    CrowdedSubset,
    Deficiency,
    RetrievalPlan,
    ValidityReport,
    find_sdr,
    plan_batch,
    verify_hc1,
    verify_hc2,
)
from .oracle import SearchResult, search_optimal, settle_gap

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "ConstantWeightCode",
    "CrowdedSubset",
    "Deficiency",
    "Params",
    "RetrievalPlan",
    "SearchResult",
    "SetSystem",
    "ValidityReport",
    "b_value",
    "best_d4_code",
    "construct_best",
    "construct_large_n",
    "construct_m_equals_k",
    "construct_m_plus_1",
    "construct_range_a",
    "construct_range_b",
    "construct_trivial",
    "construct_uniform",
    "find_sdr",
    "graham_sloane_d4",
    "inequality_slack",
    "known_n",
    "lower_bound",
    "parse",
    "plan_batch",
    "search_optimal",
    "serialize",
    "settle_gap",
    "total_storage",
    "u_value",
    "verify_hc1",
    "verify_hc2",
]
