"""Tests for the weight-bounded LRU memo (repro.memo)."""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.memo import BoundedMemo, memoised, nbytes


class TestBoundedMemo:
    def test_count_bound_evicts_least_recently_used(self):
        memo = BoundedMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "b" is now the least recently used
        memo.put("c", 3)
        assert "b" not in memo
        assert ("a" in memo, "c" in memo, len(memo)) == (True, True, 2)

    def test_byte_bound_keeps_many_small_values_and_the_newest_large_one(self):
        memo = BoundedMemo(1000, weigh=nbytes)
        for k in range(10):
            memo.put(k, np.zeros(10))  # 80 bytes each
        assert len(memo) == 10 and memo.weight == 800
        big = memo.put("big", np.zeros(500))  # 4000 bytes, alone over the bound
        assert len(memo) == 1 and memo.get("big") is big and memo.weight == 4000

    def test_replacing_a_key_reweighs_it(self):
        memo = BoundedMemo(100, weigh=len)
        memo.put("k", "x" * 60)
        memo.put("k", "y" * 30)
        assert memo.weight == 30 and memo.get("k") == "y" * 30

    def test_clear_empties_and_resets_weight(self):
        memo = BoundedMemo(10)
        memo.put(1, "one")
        memo.clear()
        assert len(memo) == 0 and memo.weight == 0 and memo.get(1) is None

    def test_memoised_calls_once_per_key_and_clears(self):
        calls = []

        @memoised(2)
        def square(x):
            calls.append(x)
            return x * x

        assert [square(3), square(3), square(4)] == [9, 9, 16]
        assert calls == [3, 4] and len(square.memo) == 2
        square.cache_clear()
        assert square(3) == 9 and calls == [3, 4, 3]

    def test_concurrent_puts_keep_weight_and_bound_exact(self):
        memo = BoundedMemo(64, weigh=len)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker(seed):
                for i in range(2000):
                    key = (seed * 7 + i) % 97
                    memo.put(key, "x" * (1 + key % 5))
                    memo.get((key * 3) % 97)

            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        held = [memo.get(key) for key in range(97) if key in memo]
        assert memo.weight == sum(len(value) for value in held)
        assert memo.weight <= memo.limit
