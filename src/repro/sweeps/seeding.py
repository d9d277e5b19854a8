"""Replica seed derivation: collision-free streams per replica.

The sweep layer turns one scenario into N seeded replicas by re-seeding
the market generator and the trace generator. The obvious scheme —
``seed + i`` — silently collides across sweeps: replica 1 of seed 2009
and replica 0 of seed 2010 would draw the *same* market, so an
ensemble's "independent" replicas can share members with a neighbouring
ensemble and its spread reads tighter than it is.

Replica seeds are therefore derived through
:class:`numpy.random.SeedSequence` spawning: child ``i`` of base seed
``s`` is ``SeedSequence(entropy=s, spawn_key=(i,))``, whose state is
hashed from ``(s, i)`` jointly. Streams for different ``(s, i)`` pairs
are statistically independent and practically collision-free, and the
derivation is pure arithmetic — stable across processes, platforms,
and numpy versions (the hash is part of numpy's API contract).

Replica 0 keeps the base seed untouched, so the first ensemble member
*is* the point-estimate run a figure computes, and the ensemble's
spread is measured around the figure's own number. (A campaign still
recomputes replica 0: its simulations stay in memory and never read
the figure's published result.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["replica_seed", "replica_seeds"]


def replica_seed(base_seed: int, replica: int) -> int:
    """The derived seed for one replica of a base seed.

    Replica 0 is the identity (the base configuration itself); replica
    ``i > 0`` is the first 64-bit word of the spawned child sequence's
    state, which cannot be reproduced by any ``base + k`` arithmetic on
    a neighbouring base seed.
    """
    if replica < 0:
        raise ValueError(f"replica index must be non-negative, got {replica}")
    if replica == 0:
        return int(base_seed)
    child = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(replica),))
    return int(child.generate_state(1, np.uint64)[0])


def replica_seeds(base_seed: int, n_replicas: int) -> tuple[int, ...]:
    """Seeds for ``n_replicas`` replicas of ``base_seed`` (replica 0 first)."""
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas}")
    return tuple(replica_seed(base_seed, i) for i in range(n_replicas))
