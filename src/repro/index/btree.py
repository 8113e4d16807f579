"""A B+-tree with range scans.

Used in two places of the paper's Fig. 4 / Sect. 4.3 layering:

* the per-segment primary-key index (one root per segment, so moving a
  segment never invalidates it),
* secondary indexes on partitions.

(Each partition's *top index* over its segments' key ranges is
:class:`repro.index.partition_tree.PartitionTree`: a dict by segment
id beside a list sorted by low key, which a lookup bisects.)

Keys may be any totally-ordered values (ints, strings, tuples of
those); values are arbitrary objects.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import typing

K = typing.TypeVar("K")
V = typing.TypeVar("V")


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: list = []
        self.children: list["_Node"] = []  # internal nodes only
        self.values: list = []  # leaves only
        self.next_leaf: "_Node | None" = None  # leaves only


class BPlusTree(typing.Generic[K, V]):
    """An order-``order`` B+-tree (max ``order`` keys per node)."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError(f"tree order must be >= 4, got {order}")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        #: Keys ever added (overwrites and deletes leave it alone): a
        #: scanner that remembers it knows no key has entered since.
        self.key_inserts = 0

    def __len__(self) -> int:
        return self._size

    # -- lookup ----------------------------------------------------------

    def _find_leaf(self, key: K) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def get(self, key: K, default: V | None = None) -> V | None:
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    # delete() is lazy, so the rightmost leaves can be empty while the
    # tree is not: max_key skips them.

    def max_key(self) -> K:
        if not self._size:
            raise KeyError("tree is empty")
        return self._last_leaf(self._root).keys[-1]

    def _last_leaf(self, node: _Node) -> _Node | None:
        """Rightmost non-empty leaf under ``node``, or None."""
        if node.is_leaf:
            return node if node.keys else None
        for child in reversed(node.children):
            leaf = self._last_leaf(child)
            if leaf is not None:
                return leaf
        return None

    # -- mutation ----------------------------------------------------------

    def build(self, keys: typing.Sequence[K], values: typing.Sequence[V]) -> None:
        """Fill an empty tree bottom-up from strictly ascending ``keys``
        and their ``values``: full leaves, then each level of separators
        over the one below, to a single root.  Lookups, scans and later
        inserts and deletes answer as after one :meth:`insert` per key,
        and ``key_inserts`` advances by ``len(keys)`` the same."""
        if self._size:
            raise ValueError("build needs an empty tree")
        if not all(map(operator.lt, keys, itertools.islice(keys, 1, None))):
            raise ValueError("build needs strictly ascending keys")
        if not keys:
            return
        order = self.order
        level = []
        for lo in range(0, len(keys), order):
            leaf = _Node(is_leaf=True)
            leaf.keys = list(keys[lo:lo + order])
            leaf.values = list(values[lo:lo + order])
            if level:
                level[-1].next_leaf = leaf
            level.append(leaf)
        lows = [leaf.keys[0] for leaf in level]
        fanout = order + 1
        while len(level) > 1:
            parents, parent_lows = [], []
            for lo in range(0, len(level), fanout):
                parent = _Node(is_leaf=False)
                parent.children = level[lo:lo + fanout]
                parent.keys = lows[lo + 1:lo + fanout]
                parents.append(parent)
                parent_lows.append(lows[lo])
            level, lows = parents, parent_lows
        self._root = level[0]
        self._size = len(keys)
        self.key_inserts += len(keys)

    def insert(self, key: K, value: V) -> None:
        """Insert or overwrite ``key``."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(self, node: _Node, key: K, value: V):
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            self.key_inserts += 1
        else:
            idx = bisect.bisect_right(node.keys, key)
            split = self._insert(node.children[idx], key, value)
            if split is not None:
                sep_key, right = split
                node.keys.insert(idx, sep_key)
                node.children.insert(idx + 1, right)
        if len(node.keys) > self.order:
            return self._split(node)
        return None

    def _split(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            right.keys = node.keys[mid:]
            right.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            right.next_leaf = node.next_leaf
            node.next_leaf = right
            sep_key = right.keys[0]
        else:
            sep_key = node.keys[mid]
            right.keys = node.keys[mid + 1:]
            right.children = node.children[mid + 1:]
            node.keys = node.keys[:mid]
            node.children = node.children[:mid + 1]
        return sep_key, right

    def delete(self, key: K) -> bool:
        """Remove ``key``; returns whether it was present.

        Uses lazy deletion (no rebalancing): leaves may underflow but
        search/scan correctness is unaffected, which is the classic
        trade-off for write-heavy workloads.
        """
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
            self._size -= 1
            return True
        return False

    # -- scans ----------------------------------------------------------

    def items(self, lo: K | None = None, hi: K | None = None,
              hi_inclusive: bool = False) -> typing.Iterator[tuple[K, V]]:
        """Yield ``(key, value)`` in key order over ``[lo, hi)``
        (or ``[lo, hi]`` with ``hi_inclusive``)."""
        if self._size == 0:
            return
        if lo is None:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]
            idx = 0
        else:
            node = self._find_leaf(lo)
            idx = bisect.bisect_left(node.keys, lo)
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if hi is not None:
                    if hi_inclusive:
                        if key > hi:
                            return
                    elif key >= hi:
                        return
                yield key, node.values[idx]
                idx += 1
            node = node.next_leaf
            idx = 0
