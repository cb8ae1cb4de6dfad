"""Batch characterization: vectorized v_c for many requests at once.

Bursty multimedia servers receive requests in batches (Section 6), and
incremental re-characterization re-keys whole queues when the clock or
head moves, so the encapsulator's per-request cost must be amortized:
this module computes the characterization values of a whole request
list with numpy.  Stage 1 comes from the stage's memo (immutable
priorities) with misses filled by the vectorized/LUT curve encoders;
the weighted deadline and partitioned seek stages are plain array
arithmetic.  Configurations outside the fast path (2-D curve stages)
fall back to the scalar encapsulator, so results are always exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.profile import instrumented

from .encapsulator import (
    Encapsulator,
    EncodeContext,
    PartitionedSeekStage,
    PrioritySFCStage,
    WeightedDeadlineStage,
)
from .request import DiskRequest


@instrumented("characterize_batch")
def characterize_batch(encapsulator: Encapsulator,
                       requests: Sequence[DiskRequest],
                       ctx: EncodeContext,
                       nows: np.ndarray | None = None) -> np.ndarray:
    """v_c of every request, identical to per-request characterize.

    ``nows`` optionally supplies one clock value *per request* (the
    simulation loop characterizes whole arrival spans at once, each
    request as of its own arrival instant); when given it overrides
    ``ctx.now_ms`` element-wise.  Stage arithmetic is identical
    left-associated float64 either way, so per-request values are
    bit-identical to a scalar characterize at that request's clock.
    """
    if not requests:
        return np.zeros(0)
    if not _fast_path_applies(encapsulator):
        if nows is None:
            return np.array([
                encapsulator.characterize(request, ctx)
                for request in requests
            ])
        return np.array([
            encapsulator.characterize(
                request,
                EncodeContext(now_ms=float(now),
                              head_cylinder=ctx.head_cylinder),
            )
            for request, now in zip(requests, nows)
        ])

    stage1 = encapsulator.stage1
    stage2 = encapsulator.stage2
    stage3 = encapsulator.stage3
    now_ms = ctx.now_ms if nows is None else nows

    if stage1 is not None:
        values = stage1.encode_many(
            [request.priorities for request in requests]
        )
        cells = stage1.output_cells
    else:
        values = np.zeros(len(requests))
        cells = 1

    if stage2 is not None:
        values = _weighted_batch(stage2, values, cells, requests,
                                 now_ms)
        cells = stage2.output_cells

    if stage3 is not None:
        if isinstance(stage2, WeightedDeadlineStage):
            floor = stage2.floor_value(now_ms)
            values = np.maximum(values - floor, 0.0)
        values = _partitioned_batch(stage3, values, cells, requests,
                                    ctx.head_cylinder)

    if stage1 is None and stage2 is None and stage3 is None:
        return np.array([request.arrival_ms for request in requests])
    return values


def _fast_path_applies(encapsulator: Encapsulator) -> bool:
    stage1 = encapsulator.stage1
    if stage1 is not None and not isinstance(stage1, PrioritySFCStage):
        # Custom stage-1 protocols must go through their own encode().
        # A PrioritySFCStage always qualifies: encode_many() is memo +
        # batch_index, which is total (analytic, LUT, or the scalar
        # loop) and bit-identical to scalar encode either way.
        return False
    stage2 = encapsulator.stage2
    if stage2 is not None and not isinstance(stage2,
                                             WeightedDeadlineStage):
        return False
    stage3 = encapsulator.stage3
    if stage3 is not None and not isinstance(stage3,
                                             PartitionedSeekStage):
        return False
    return True


def _rescale_batch(values: np.ndarray, in_cells: int,
                   out_cells: int) -> np.ndarray:
    if in_cells <= 1:
        return np.zeros_like(values)
    scaled = np.floor(values * out_cells / in_cells)
    return np.clip(scaled, 0, out_cells - 1)


def _weighted_batch(stage: WeightedDeadlineStage, values: np.ndarray,
                    cells: int, requests: Sequence[DiskRequest],
                    now_ms: float | np.ndarray) -> np.ndarray:
    p = _rescale_batch(values, cells, stage.grid)
    deadlines = np.array([request.deadline_ms for request in requests])
    relaxed = np.isinf(deadlines)
    deadlines = np.where(
        relaxed,
        now_ms + stage.relaxed_horizons * stage.horizon_ms,
        deadlines,
    )
    d = deadlines / stage.horizon_ms * stage.grid
    primary = p + stage.f * d
    if stage.f < 1.0:
        secondary = d
    elif stage.f > 1.0:
        secondary = p
    else:
        secondary = np.zeros_like(p)
    return primary + secondary * 1e-9


def _partitioned_batch(stage: PartitionedSeekStage, values: np.ndarray,
                       cells: int, requests: Sequence[DiskRequest],
                       head_cylinder: int) -> np.ndarray:
    x = _rescale_batch(values, cells, stage.x_cells).astype(np.int64)
    cylinders = np.array([request.cylinder for request in requests],
                         dtype=np.int64)
    reference = head_cylinder if stage.track_head else 0
    total = stage.y_cells
    if stage.cylinder_quantizer.directional:
        y = (cylinders - reference) % total
    else:
        y = np.abs(cylinders - reference)
    y = np.minimum(y * stage.cylinder_quantizer.bins // total,
                   stage.cylinder_quantizer.bins - 1)
    p_n = np.minimum(x // stage.partition_width, stage.r_partitions - 1)
    offset = x - p_n * stage.partition_width
    base = p_n * (stage.y_cells * stage.partition_width)
    return (base + y * stage.partition_width + offset).astype(np.float64)
