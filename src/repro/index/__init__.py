"""Index structures.

WattDB realises indexes as B*-trees that "span only one partition at a
time" (Sect. 4).  Physiological partitioning additionally keeps a
primary-key B-tree *inside every segment* plus a very small top index
per partition mapping key ranges to segments — the multi-rooted-tree
idea inherited from Tözün et al.
"""

from repro.index.btree import BPlusTree
from repro.index.partition_tree import KeyRange, PartitionTree, RangeMap
from repro.index.global_table import GlobalPartitionTable, PartitionLocation

__all__ = [
    "BPlusTree",
    "GlobalPartitionTable",
    "KeyRange",
    "PartitionLocation",
    "PartitionTree",
    "RangeMap",
]
