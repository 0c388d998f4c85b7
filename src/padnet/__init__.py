"""Padded decompositions, sparse covers, and padded partition covers for
bounded-treewidth graphs, built on tree-ordered nets over tree partitions."""

from .covers import PartitionCover, SparseCover, build_partition_cover, build_sparse_cover
from .decomposition import (
    DecompositionParams,
    PaddedPartition,
    TruncatedExp,
    sample_padded_decomposition,
    sample_padded_decompositions,
    sample_truncated_exp,
)
from .graph import (
    GraphFormatError,
    WeightedGraph,
    ball,
    ball_pairs,
    parse_edge_list,
    shortest_paths,
    strong_diameter,
    weak_diameter,
)
from .ordered_net import (
    Core,
    TreeOrderedNet,
    build_semi_tree_order,
    build_tree_ordered_net,
    packing_profile,
    semi_to_tree_order,
)
from .trees import (
    IsometricEmbedding,
    TdValidationError,
    TreeDecomposition,
    TreePartition,
    load_tree_decomposition,
    td_to_tree_partition,
)
from .verify import (
    OracleCapError,
    VerificationReport,
    full_report,
    oracle_all_pairs,
    verify_cover,
    verify_net,
    verify_partition,
)

__version__ = "0.1.0"
