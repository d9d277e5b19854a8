"""The C AR(1) recursion equals the scipy lfilter path byte for byte.

``repro.markets.model.ar1_filter`` runs its recursion in C
(``ar1_rows`` in ``repro/kernels.c``); ``ar1_oracle.ar1_filter`` is the
same filter through ``scipy.signal.lfilter``, as the library ran it
before. This property drives both on the same shock stacks, built to
hit the recursion's edge cases: 1-, 2- and 3-D stacks with empty
leading axes and series of length 0, 1 and 2; C-ordered, F-ordered,
strided and reversed inputs, and series that run along a transposed
matrix's columns (``innovations[j]`` of a transposed matrix);
float32 shocks; ``phi`` anywhere in [0, 1); ``sigma`` of 0, -0.0,
inf and values near overflow; and shocks of +-0.0, +-inf, subnormals
and magnitudes that overflow once scaled. Where the output holds NaN
only the NaN positions must match: their payloads and sign bits are
not part of the contract.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markets.model import ar1_filter

import ar1_oracle

SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, 1.7e308, -1.7e308, 1e300, -1e300, 5e-324, -5e-324, 1.0, -1.0]
)


@st.composite
def ar1_cases(draw):
    ndim = draw(st.integers(1, 3))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 80)))
    lead = tuple(draw(st.lists(st.integers(0, 4), min_size=ndim - 1, max_size=ndim - 1)))
    layout = draw(st.sampled_from(("c", "fortran", "strided", "reversed", "columns")))
    dtype = draw(st.sampled_from((np.float64, np.float64, np.float32)))
    special_rate = draw(st.sampled_from((0.0, 0.05, 0.3)))
    nan_rate = draw(st.sampled_from((0.0, 0.0, 0.05)))
    scale = draw(st.sampled_from((1.0, 1.0, 1e150, 1e300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    shape = (*lead, 2 * n if layout == "strided" else n)
    x = rng.standard_normal(shape) * scale
    special = rng.random(shape) < special_rate
    x[special] = rng.choice(SPECIAL, int(special.sum()))
    x[rng.random(shape) < nan_rate] = np.nan
    with np.errstate(over="ignore"):
        x = x.astype(dtype)
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = x[..., ::2]
    elif layout == "reversed":
        x = x[..., ::-1]
    elif layout == "columns":
        # Each series is a column of a C-ordered matrix, read through a
        # transposed view: the last axis is the slow one.
        x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)

    phi = draw(
        st.one_of(
            st.sampled_from((0.0, 0.3, 0.9, 0.999)),
            st.floats(0.0, 1.0, exclude_max=True),
        )
    )
    sigma = draw(
        st.one_of(
            st.sampled_from((0.0, -0.0, 1.0, np.inf, 1e300, 1.7e308)),
            st.floats(0.0, 1e6),
        )
    )
    return x, phi, sigma


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    got_nan, want_nan = np.isnan(got), np.isnan(want)
    np.testing.assert_array_equal(got_nan, want_nan)
    # Boolean indexing reads both in C order, whatever their layouts.
    assert got[~got_nan].tobytes() == want[~want_nan].tobytes()


@settings(max_examples=400, deadline=None)
@given(ar1_cases())
def test_ar1_filter_matches_lfilter_bit_for_bit(case):
    innovations, phi, sigma = case
    before = innovations.copy()
    with np.errstate(all="ignore"):
        got = ar1_filter(innovations, phi, sigma)
        want = ar1_oracle.ar1_filter(innovations, phi, sigma)
    assert_same_bits(got, want)
    assert got.flags.c_contiguous
    assert np.array_equal(innovations, before, equal_nan=True)  # the input is left alone

