"""Out-of-core backing store and key-range sharding for packed matrices.

See DESIGN.md §8: :class:`ChunkedMatrixStore` keeps the packed predicate
rows in row chunks (``numpy.memmap``-persisted with an LRU-bounded
resident set when given a memory budget), and :class:`ShardedAspeLibrary`
partitions the key space into runtime-splittable/mergeable
:class:`AspeShard` ranges on top of it.
"""

from .config import StoreConfig
from .chunks import ChunkedMatrixStore, RowBlock
from .shard import AspeShard, ShardOpResult, ShardedAspeLibrary

__all__ = [
    "StoreConfig",
    "ChunkedMatrixStore",
    "RowBlock",
    "AspeShard",
    "ShardOpResult",
    "ShardedAspeLibrary",
]
