"""A least-recently-used memo bounded by the total weight of its values.

``functools.lru_cache`` bounds a memo by entry count, which suits
values of one size. Traffic traces and diurnal curves range from a
few kilobytes (a campaign's 36-step trace) to tens of megabytes (a
year at five minutes), so their memos are bounded by bytes instead:
many small values fit, large ones still evict. Weighing every value
as 1 gives a count bound with the membership test ``lru_cache`` lacks.
"""

from __future__ import annotations

import threading
from functools import wraps
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["BoundedMemo", "memoised", "nbytes"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def nbytes(value) -> int:
    """Weigh a value by its ``nbytes`` (arrays, traces)."""
    return int(value.nbytes)


class BoundedMemo(Generic[K, V]):
    """Values by key, least recently used first, evicted past ``limit``.

    ``weigh`` maps a value to its weight (default: 1 per entry, so
    ``limit`` counts entries). The newest value is always kept, even
    when it alone outweighs the limit.
    """

    def __init__(self, limit: int, weigh: Callable[[V], int] | None = None) -> None:
        self.limit = int(limit)
        self._weigh = weigh
        self._entries: dict[K, tuple[V, int]] = {}
        self._weight = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    @property
    def weight(self) -> int:
        """The total weight of the values held."""
        return self._weight

    def get(self, key: K) -> V | None:
        """The value under ``key`` (now the most recent), or None."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._entries[key] = entry
            return entry[0]

    def put(self, key: K, value: V) -> V:
        """Hold ``value`` under ``key`` as the most recent; return it."""
        weight = 1 if self._weigh is None else self._weigh(value)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._weight -= previous[1]
            self._entries[key] = (value, weight)
            self._weight += weight
            while self._weight > self.limit and len(self._entries) > 1:
                _, evicted = self._entries.pop(next(iter(self._entries)))
                self._weight -= evicted
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weight = 0


def memoised(limit: int, weigh: Callable | None = None) -> Callable:
    """Memoise a function of hashable arguments in a :class:`BoundedMemo`.

    The wrapper keeps ``cache_clear`` (as ``lru_cache`` does) and
    exposes the memo itself as ``memo``.
    """

    def decorate(function: Callable) -> Callable:
        memo: BoundedMemo = BoundedMemo(limit, weigh)

        @wraps(function)
        def wrapper(*args):
            value = memo.get(args)
            if value is None:
                value = memo.put(args, function(*args))
            return value

        wrapper.memo = memo
        wrapper.cache_clear = memo.clear
        return wrapper

    return decorate
