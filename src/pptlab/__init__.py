"""pptlab: numerical certification of bipartite PPT states.

The package is organized in four layers plus a command line front end:

- :mod:`pptlab.qstate`  core operator algebra (partial transpose, reduced
  operators, ranks, kernels); a state carries the rank and PSD cuts that
  every verdict on it reads,
- :mod:`pptlab.zoo`     constructors for the named example states and
  unextendible product bases,
- :mod:`pptlab.segre`   product vectors inside subspaces: enumeration,
  transversality, good/bad classification,
- :mod:`pptlab.certify` extremality and structure certificates,
- :mod:`pptlab.cli`     `pptlab` command line tool.

All operations are pure functions over immutable containers; batch callers
may run them concurrently on disjoint states without coordination.
"""

from .qstate import (
    BipartiteDims,
    BipartiteState,
    BlockFactor,
    HermitianOperator,
    ProductVector,
    RankProfile,
    SubspaceBasis,
    from_blocks,
    factor_blocks,
    is_ppt,
    kernel_basis,
    load_state,
    partial_transpose,
    range_basis,
    rank_profile,
    reduced_operators,
    save_state,
)

__all__ = [
    "BipartiteDims",
    "BipartiteState",
    "BlockFactor",
    "HermitianOperator",
    "ProductVector",
    "RankProfile",
    "SubspaceBasis",
    "from_blocks",
    "factor_blocks",
    "is_ppt",
    "kernel_basis",
    "load_state",
    "partial_transpose",
    "range_basis",
    "rank_profile",
    "reduced_operators",
    "save_state",
]

__version__ = "0.1.0"
