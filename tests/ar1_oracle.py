"""The AR(1) filter through scipy's lfilter: the bitwise oracle for the C kernel.

``ar1_filter`` is ``repro.markets.model.ar1_filter`` as it stood before
the recursion moved into ``ar1_rows`` (``repro/kernels.c``): the same
validation and numpy prelude, then ``scipy.signal.lfilter`` with the
first sample's ``phi * y[0]`` as its initial state. scipy is a test
dependency only; the library itself does not import it.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter


def ar1_filter(innovations: np.ndarray, phi: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) processes along the last axis (see ``markets.model``)."""
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must be in [0, 1), got {phi}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    innovation_scale = sigma * np.sqrt(1.0 - phi * phi)
    out = np.empty_like(innovations, dtype=float)
    if out.size == 0:
        return out
    out[..., 0] = innovations[..., 0] * sigma
    tail = out[..., 1:]
    np.multiply(innovations[..., 1:], innovation_scale, out=tail)
    tail[...] = lfilter([1.0], [1.0, -phi], tail, axis=-1, zi=phi * out[..., :1])[0]
    return out
