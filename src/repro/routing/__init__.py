"""Routing policies: the price-conscious optimizer and its baselines."""

from repro.routing.akamai import BaselineProximityRouter
from repro.routing.base import (
    Router,
    RoutingProblem,
    batch_allocate,
    deployment_distance_table,
    greedy_fill_batch,
)
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import (
    DEFAULT_PRICE_THRESHOLD,
    METRO_RADIUS_KM,
    PriceConsciousRouter,
)
from repro.routing.static import StaticSingleHubRouter, cheapest_cluster_index

__all__ = [
    "BaselineProximityRouter",
    "Router",
    "RoutingProblem",
    "batch_allocate",
    "deployment_distance_table",
    "greedy_fill_batch",
    "JointOptimizationRouter",
    "DEFAULT_PRICE_THRESHOLD",
    "METRO_RADIUS_KM",
    "PriceConsciousRouter",
    "StaticSingleHubRouter",
    "cheapest_cluster_index",
]
