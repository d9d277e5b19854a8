"""Pinned bytes of generated markets.

Every figure, sweep and serving check prices its runs from
:func:`generate_market`, so a change to how prices are drawn, filtered
or scaled must not move a single bit of them. This file hashes
``price_matrix`` followed by ``day_ahead_matrix`` for the default
(paper-range) market and three compact ones, and compares them with
digests recorded when calendar decomposition and the per-hub
multipliers were first vectorised.
"""

import hashlib
from datetime import datetime

import pytest

from repro.markets.generator import MarketConfig, generate_market

CONFIGS = {
    "default": {},
    "2008-11-01x2-seed7": {"start": datetime(2008, 11, 1), "months": 2, "seed": 7},
    "2008-10-01x6-seed7": {"start": datetime(2008, 10, 1), "months": 6, "seed": 7},
    "2008-01-31x3-seed3": {"start": datetime(2008, 1, 31), "months": 3, "seed": 3},
}

DIGESTS = {
    "default": "c7be4dcddaf46f77f893b2fef54bde02edc9891d05bd4075777756a9ba815668",
    "2008-11-01x2-seed7": "efeb2c71a1efc45eea2d3492bcc21cc2ce8dfb142d03970f9b1b6672fd56e521",
    "2008-10-01x6-seed7": "e7c050fdd9f7bacf8f1f433a6caccf840e88e85cd434c8bfdb745ea305c4b931",
    "2008-01-31x3-seed3": "80db8e65faa6e174dfff9a7d2367974ea27bfa55619bd24b29ec6bcf5e6ee939",
}


def _digest(dataset) -> str:
    h = hashlib.sha256()
    h.update(dataset.price_matrix.tobytes())
    h.update(dataset.day_ahead_matrix.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_generate_market_bytes_are_pinned(name):
    dataset = generate_market(MarketConfig(**CONFIGS[name]))
    assert _digest(dataset) == DIGESTS[name]
