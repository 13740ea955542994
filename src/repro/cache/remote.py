"""Level 3: the remote-answer cache at the Clarens client.

When a data access service forwards a logical sub-query to the remote
JClarens server that publishes the table, the full answer (columns,
types, rows) comes back over the wire. Repeating that forwarded call is
the single most expensive cache miss in the federation — it pays RLS
resolution amortization, the WAN/LAN round-trip, remote execution and
per-row encode/decode. This cache sits inside :class:`ClarensClient`
and intercepts repeat calls to cacheable methods.

Freshness is enforced two ways, both checked on every hit:

* **epoch generation** — the local :class:`EpochRegistry`'s global
  ``generation`` must not have moved since the answer was stored (the
  origin cannot see a remote peer's per-database epochs, so any local
  invalidation event conservatively flushes remote answers too);
* **TTL** — a simulated-clock deadline bounds how long a remote
  server's unseen changes can go unnoticed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain

from repro.cache.epochs import EpochRegistry
from repro.cache.store import LRUCache
from repro.engine.storage import estimate_row_bytes


@dataclass
class _Answer:
    value: object
    generation: int
    deadline_ms: float


def _answer_bytes(value) -> int:
    """Approximate footprint of a wire answer (row payload + envelope)."""
    if not isinstance(value, dict):
        return 256
    return estimate_row_bytes(tuple(chain.from_iterable(value.get("rows", ())))) + 256


class RemoteAnswerCache:
    """TTL-bounded, epoch-checked memo of remote Clarens answers."""

    #: methods whose answers are pure functions of (args, remote data)
    CACHEABLE_METHODS = frozenset({"dataaccess.query"})

    def __init__(
        self,
        clock,
        epochs: EpochRegistry,
        metrics=None,
        ttl_ms: float = 30_000.0,
        max_entries: int = 512,
        max_bytes: int = 8 << 20,
    ):
        self.clock = clock
        self.epochs = epochs
        self.metrics = metrics
        self.ttl_ms = ttl_ms
        self._lru = LRUCache(max_entries, max_bytes, on_evict=self._count_evictions)

    def _count(self, name: str, n: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _count_evictions(self, n: int) -> None:
        self._count("cache.evictions", n)

    # -- the client-facing API ------------------------------------------------

    def cacheable(self, method: str) -> bool:
        return method in self.CACHEABLE_METHODS

    def key(self, server_name: str, method: str, args: tuple):
        return (server_name, method, repr(args))

    @property
    def now_ms(self) -> float:
        return self.clock.now_ms if self.clock is not None else 0.0

    def get(self, key):
        """The cached answer (deep copy) or None when absent/stale."""
        answer = self._lru.get(key)
        if answer is None:
            self._count("cache.remote.misses")
            return None
        if answer.generation != self.epochs.generation or self.now_ms > answer.deadline_ms:
            self._lru.remove(key)
            self._count("cache.remote.misses")
            self._count("cache.invalidations")
            return None
        self._count("cache.remote.hits")
        # deep copy: callers own the answer and may mutate it freely
        return copy.deepcopy(answer.value)

    def put(self, key, value) -> None:
        self._lru.put(
            key,
            _Answer(
                value=copy.deepcopy(value),
                generation=self.epochs.generation,
                deadline_ms=self.now_ms + self.ttl_ms,
            ),
            nbytes=_answer_bytes(value),
        )

    # -- maintenance ----------------------------------------------------------

    def flush(self) -> int:
        """Drop every cached answer; returns the count dropped."""
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def bytes(self) -> int:
        return self._lru.bytes
