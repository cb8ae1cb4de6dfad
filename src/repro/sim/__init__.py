"""Event-driven disk-server simulator and metrics."""

from .array import ArrayResult, LogicalRequest, run_array_simulation
from .engine import EventQueue, EventToken
from .metrics import MetricsCollector, linear_weights
from .soa import InversionLedger, RequestColumns
from .report import (
    format_comparison,
    format_result,
    miss_histogram,
    summarize_metrics,
)
from .rng import derive, exponential_interarrivals
from .server import (
    ENGINES,
    SimulationResult,
    TimelineEntry,
    resolve_engine,
    run_simulation,
)
from .service import (
    DiskService,
    ServiceModel,
    SyntheticService,
    constant_service,
    priority_scaled_service,
)

__all__ = [
    "ENGINES",
    "ArrayResult",
    "DiskService",
    "EventQueue",
    "EventToken",
    "InversionLedger",
    "LogicalRequest",
    "MetricsCollector",
    "RequestColumns",
    "ServiceModel",
    "SimulationResult",
    "SyntheticService",
    "TimelineEntry",
    "constant_service",
    "derive",
    "exponential_interarrivals",
    "format_comparison",
    "format_result",
    "linear_weights",
    "miss_histogram",
    "priority_scaled_service",
    "resolve_engine",
    "run_array_simulation",
    "run_simulation",
    "summarize_metrics",
]
