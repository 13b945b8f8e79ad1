"""The paper's primary contribution: cache replacement schemes.

Everything revolves around the :class:`~repro.core.cache.Cache` /
:class:`~repro.core.policy.ReplacementPolicy` split: the cache owns
capacity, residency, and byte accounting; the policy owns only the
eviction order.  The policies studied in the paper —

* :class:`~repro.core.lru.LRUPolicy` (recency),
* :class:`~repro.core.lfu_da.LFUDAPolicy` (frequency with dynamic aging),
* :class:`~repro.core.gds.GDSPolicy` (Greedy-Dual-Size, cost/size aware),
* :class:`~repro.core.gdstar.GDStarPolicy` (Greedy-Dual*, adds frequency
  and online temporal-correlation adaptation) —

plus the comparison baselines of the cited studies (FIFO, LFU, SIZE,
RAND, LRU-K, GDSF, offline Belady bound).  The value-based ones state
only their key on one shared base (:mod:`~repro.core.heap_policy`).  Cost models: constant cost
``c(p)=1`` and packet cost ``c(p)=2+s(p)/536`` (:mod:`~repro.core.cost`).

Use :func:`~repro.core.registry.make_policy` to construct policies by
the names the paper uses: ``"lru"``, ``"lfu-da"``, ``"gds(1)"``,
``"gd*(1)"``, ``"gds(p)"``, ``"gd*(p)"``, ...
"""

from repro.core.policy import AccessOutcome, CacheEntry, ReplacementPolicy
from repro.core.cache import Cache
from repro.core.heap_policy import GreedyDualPolicy, HeapPolicy
from repro.core.cost import (
    ConstantCost,
    CostModel,
    LatencyCost,
    PacketCost,
    make_cost_model,
)
from repro.core.lru import LRUPolicy
from repro.core.fifo import FIFOPolicy
from repro.core.lfu import LFUPolicy
from repro.core.lfu_da import LFUDAPolicy
from repro.core.size_policy import SizePolicy
from repro.core.random_policy import RandomPolicy
from repro.core.lru_k import LRUKPolicy
from repro.core.lru_threshold import LRUThresholdPolicy
from repro.core.slru import SLRUPolicy
from repro.core.gds import GDSPolicy
from repro.core.gdsf import GDSFPolicy
from repro.core.gdstar import GDStarPolicy
from repro.core.gdstar_typed import GDStarTypedPolicy
from repro.core.landlord import LandlordPolicy
from repro.core.hyperbolic import HyperbolicPolicy
from repro.core.belady import BeladyPolicy
from repro.core.beta_estimator import OnlineBetaEstimator
from repro.core.admission import SecondHitAdmission
from repro.core.partitioned import PartitionedCache
from repro.core.registry import POLICY_NAMES, make_policy

__all__ = [
    "AccessOutcome",
    "CacheEntry",
    "ReplacementPolicy",
    "HeapPolicy",
    "GreedyDualPolicy",
    "Cache",
    "CostModel",
    "ConstantCost",
    "PacketCost",
    "LatencyCost",
    "make_cost_model",
    "LRUPolicy",
    "FIFOPolicy",
    "LFUPolicy",
    "LFUDAPolicy",
    "SizePolicy",
    "RandomPolicy",
    "LRUKPolicy",
    "LRUThresholdPolicy",
    "SLRUPolicy",
    "GDSPolicy",
    "GDSFPolicy",
    "GDStarPolicy",
    "GDStarTypedPolicy",
    "LandlordPolicy",
    "HyperbolicPolicy",
    "BeladyPolicy",
    "OnlineBetaEstimator",
    "PartitionedCache",
    "SecondHitAdmission",
    "POLICY_NAMES",
    "make_policy",
]
