"""Query workload generation for the evaluation harness."""

from .async_replay import AsyncReplayReport, async_replay, replay_over_network
from .churn import (
    ChurnWorkload,
    QueryEvent,
    UpdateEvent,
    churn_workload,
)
from .queries import (
    uniform_query_workload,
    degree_weighted_query_workload,
    zipfian_query_workload,
    QueryWorkload,
)
from .replay import ReplayReport, replay

__all__ = [
    "AsyncReplayReport",
    "async_replay",
    "replay_over_network",
    "ChurnWorkload",
    "QueryEvent",
    "UpdateEvent",
    "churn_workload",
    "uniform_query_workload",
    "degree_weighted_query_workload",
    "zipfian_query_workload",
    "QueryWorkload",
    "ReplayReport",
    "replay",
]
