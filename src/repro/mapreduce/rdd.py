"""A miniature RDD abstraction with DiAS-style task dropping.

The runtime executes jobs as Spark does at a high level: an RDD is a list of
partitions; *narrow* transformations (map, flatMap, filter, mapPartitions)
compose per-partition functions without moving data; *wide* transformations
(reduceByKey, groupByKey) introduce a stage boundary — every partition of the
parent stage is computed as one task, the intermediate key-value pairs are
hash-partitioned, and the next stage starts.

DiAS modifies Spark's ``findMissingPartitions()`` to return only
``⌈n(1 − θ)⌉`` of a stage's ``n`` partitions (§3.3).  The
:class:`LocalRuntime` applies exactly that rule at every stage boundary and at
the final action, and keeps per-stage statistics (executed vs dropped tasks)
so experiments can report the achieved drop ratios.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dropper import find_missing_partitions


def partition_hash(key: Any) -> int:
    """Hash used to place a key in a reduce partition, stable across processes.

    Python salts ``hash(str)`` per process (``PYTHONHASHSEED``), which would
    make word-count partitions, and therefore which words survive a dropped
    reduce task, differ between runs of the same seed.  Strings hash by the
    CRC-32 of their UTF-8 bytes instead; other keys (ints, tuples of ints)
    already hash the same in every process and keep ``hash``.
    """
    if key.__class__ is str:
        return zlib.crc32(key.encode("utf-8"))
    return hash(key)


@dataclass
class StageStats:
    """Execution statistics of one stage run by the runtime."""

    stage_id: int
    total_tasks: int
    executed_tasks: int
    dropped_tasks: int
    description: str = ""

    @property
    def drop_ratio(self) -> float:
        if self.total_tasks == 0:
            return 0.0
        return self.dropped_tasks / self.total_tasks


class LocalRuntime:
    """Executes RDD lineages locally, dropping tasks per the configured ratio."""

    def __init__(
        self,
        drop_ratio: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= drop_ratio < 1.0:
            raise ValueError("drop_ratio must be in [0, 1)")
        self.drop_ratio = drop_ratio
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._stage_counter = itertools.count()
        self.stages: List[StageStats] = []

    # ------------------------------------------------------------- creation
    def parallelize(self, data: Sequence[Any], num_partitions: int) -> "RDD":
        """Split ``data`` into ``num_partitions`` roughly equal partitions."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        items = list(data)
        partitions: List[List[Any]] = [[] for _ in range(num_partitions)]
        for index, item in enumerate(items):
            partitions[index % num_partitions].append(item)
        return RDD(self, _SourceNode(partitions))

    def from_partitions(self, partitions: Sequence[Sequence[Any]]) -> "RDD":
        """Build an RDD directly from pre-existing partitions."""
        return RDD(self, _SourceNode([list(p) for p in partitions]))

    # ------------------------------------------------------------ scheduling
    def select_partitions(self, num_partitions: int) -> List[int]:
        """The DiAS ``findMissingPartitions`` rule: keep ``⌈n(1 − θ)⌉`` tasks."""
        keep = find_missing_partitions(num_partitions, self.drop_ratio)
        if keep >= num_partitions:
            return list(range(num_partitions))
        chosen = self._rng.choice(num_partitions, size=keep, replace=False)
        return sorted(int(i) for i in chosen)

    def record_stage(self, total: int, executed: int, description: str = "") -> StageStats:
        stats = StageStats(
            stage_id=next(self._stage_counter),
            total_tasks=total,
            executed_tasks=executed,
            dropped_tasks=total - executed,
            description=description,
        )
        self.stages.append(stats)
        return stats

    @property
    def total_tasks_executed(self) -> int:
        return sum(s.executed_tasks for s in self.stages)

    @property
    def total_tasks_dropped(self) -> int:
        return sum(s.dropped_tasks for s in self.stages)

    @property
    def effective_drop_ratio(self) -> float:
        """Overall fraction of tasks dropped across all stages run so far."""
        total = self.total_tasks_executed + self.total_tasks_dropped
        if total == 0:
            return 0.0
        return self.total_tasks_dropped / total


# --------------------------------------------------------------------------
# Lineage nodes
# --------------------------------------------------------------------------
class _Node:
    """A node of the lineage DAG; subclasses know how to compute partitions."""

    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute_partition(self, index: int) -> List[Any]:
        raise NotImplementedError


class _SourceNode(_Node):
    def __init__(self, partitions: List[List[Any]]) -> None:
        self._partitions = partitions

    def num_partitions(self) -> int:
        return len(self._partitions)

    def compute_partition(self, index: int) -> List[Any]:
        return list(self._partitions[index])


class _NarrowNode(_Node):
    """A narrow transformation: per-partition function over the parent."""

    def __init__(self, parent: _Node, fn: Callable[[List[Any]], List[Any]]) -> None:
        self._parent = parent
        self._fn = fn

    def num_partitions(self) -> int:
        return self._parent.num_partitions()

    def compute_partition(self, index: int) -> List[Any]:
        return self._fn(self._parent.compute_partition(index))


class _ShuffledNode(_Node):
    """A wide transformation: parent stage is materialised, keys repartitioned.

    The parent stage is executed through the runtime so the DiAS task-drop
    rule applies; results are cached so downstream partitions do not recompute
    the shuffle.
    """

    def __init__(
        self,
        runtime: LocalRuntime,
        parent: _Node,
        reducer: Optional[Callable[[Any, Any], Any]],
        num_partitions: int,
        description: str,
    ) -> None:
        self._runtime = runtime
        self._parent = parent
        self._reducer = reducer
        self._num_partitions = num_partitions
        self._description = description
        self._materialised: Optional[List[List[Any]]] = None

    def num_partitions(self) -> int:
        return self._num_partitions

    def _materialise(self) -> List[List[Any]]:
        if self._materialised is not None:
            return self._materialised
        total = self._parent.num_partitions()
        selected = self._runtime.select_partitions(total)
        self._runtime.record_stage(total, len(selected), self._description)
        buckets: List[Dict[Any, Any]] = [dict() for _ in range(self._num_partitions)]
        for index in selected:
            for item in self._parent.compute_partition(index):
                if not isinstance(item, tuple) or len(item) != 2:
                    raise TypeError(
                        "wide transformations need (key, value) pairs, got "
                        f"{type(item).__name__}"
                    )
                key, value = item
                bucket = buckets[partition_hash(key) % self._num_partitions]
                if self._reducer is None:
                    bucket.setdefault(key, []).append(value)
                elif key in bucket:
                    bucket[key] = self._reducer(bucket[key], value)
                else:
                    bucket[key] = value
        self._materialised = [list(bucket.items()) for bucket in buckets]
        return self._materialised

    def compute_partition(self, index: int) -> List[Any]:
        return list(self._materialise()[index])


# --------------------------------------------------------------------------
# Public RDD API
# --------------------------------------------------------------------------
class RDD:
    """A resilient-distributed-dataset handle bound to a :class:`LocalRuntime`."""

    def __init__(self, runtime: LocalRuntime, node: _Node) -> None:
        self._runtime = runtime
        self._node = node

    # ------------------------------------------------------------ structure
    def get_num_partitions(self) -> int:
        return self._node.num_partitions()

    @property
    def runtime(self) -> LocalRuntime:
        return self._runtime

    # --------------------------------------------------- narrow transformations
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return RDD(self._runtime, _NarrowNode(self._node, lambda part: [fn(x) for x in part]))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        def _apply(part: List[Any]) -> List[Any]:
            out: List[Any] = []
            for item in part:
                out.extend(fn(item))
            return out

        return RDD(self._runtime, _NarrowNode(self._node, _apply))

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return RDD(
            self._runtime,
            _NarrowNode(self._node, lambda part: [x for x in part if predicate(x)]),
        )

    def map_partitions(self, fn: Callable[[List[Any]], Iterable[Any]]) -> "RDD":
        return RDD(self._runtime, _NarrowNode(self._node, lambda part: list(fn(part))))

    # ----------------------------------------------------- wide transformations
    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], num_partitions: Optional[int] = None
    ) -> "RDD":
        partitions = num_partitions or self.get_num_partitions()
        return RDD(
            self._runtime,
            _ShuffledNode(self._runtime, self._node, fn, partitions, "reduceByKey"),
        )

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        partitions = num_partitions or self.get_num_partitions()
        return RDD(
            self._runtime,
            _ShuffledNode(self._runtime, self._node, None, partitions, "groupByKey"),
        )

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .map(lambda kv: kv[0])
        )

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner join of two key-value RDDs."""
        tagged_self = self.map(lambda kv: (kv[0], ("left", kv[1])))
        tagged_other = other.map(lambda kv: (kv[0], ("right", kv[1])))
        unioned = self._runtime.from_partitions(
            [tagged_self._collect_raw(), tagged_other._collect_raw()]
        )
        grouped = unioned.group_by_key(num_partitions or self.get_num_partitions())

        def _emit(kv: Tuple[Any, List[Tuple[str, Any]]]) -> Iterable[Tuple[Any, Tuple[Any, Any]]]:
            key, values = kv
            lefts = [v for tag, v in values if tag == "left"]
            rights = [v for tag, v in values if tag == "right"]
            for lv in lefts:
                for rv in rights:
                    yield (key, (lv, rv))

        return grouped.flat_map(_emit)

    # ---------------------------------------------------------------- actions
    def _collect_raw(self) -> List[Any]:
        """Collect without applying the drop rule (internal plumbing)."""
        out: List[Any] = []
        for index in range(self.get_num_partitions()):
            out.extend(self._node.compute_partition(index))
        return out

    def collect(self, apply_drop: bool = True, description: str = "collect") -> List[Any]:
        """Run the final stage and return its results.

        ``apply_drop=True`` applies the DiAS rule to the final stage as well;
        shuffle stages upstream always apply it (they go through the runtime).
        """
        total = self.get_num_partitions()
        if apply_drop:
            selected = self._runtime.select_partitions(total)
        else:
            selected = list(range(total))
        self._runtime.record_stage(total, len(selected), description)
        out: List[Any] = []
        for index in selected:
            out.extend(self._node.compute_partition(index))
        return out

    def count(self, apply_drop: bool = True) -> int:
        return len(self.collect(apply_drop=apply_drop, description="count"))

    def reduce(self, fn: Callable[[Any, Any], Any], apply_drop: bool = True) -> Any:
        values = self.collect(apply_drop=apply_drop, description="reduce")
        if not values:
            raise ValueError("cannot reduce an empty RDD")
        acc = values[0]
        for value in values[1:]:
            acc = fn(acc, value)
        return acc

    def collect_as_map(self, apply_drop: bool = True) -> Dict[Any, Any]:
        return dict(self.collect(apply_drop=apply_drop, description="collectAsMap"))
