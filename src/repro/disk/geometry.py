"""Disk geometry: cylinders, zones, and block-to-cylinder mapping.

Models a zoned (ZBR) disk like the Quantum XP32150 of the paper's
Table 1: outer zones pack more sectors per track, so both capacity and
transfer rate vary with the cylinder.  The geometry maps logical file
blocks (64 KB in the paper) to cylinders, which is how workload
generators translate stream offsets into the cylinder coordinate that
schedulers care about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Zone:
    """A contiguous run of cylinders sharing a sectors-per-track count."""

    first_cylinder: int
    last_cylinder: int  # inclusive
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.first_cylinder < 0 or self.last_cylinder < self.first_cylinder:
            raise ValueError(
                f"invalid zone bounds [{self.first_cylinder}, {self.last_cylinder}]"
            )
        if self.sectors_per_track < 1:
            raise ValueError("sectors_per_track must be positive")

    @property
    def cylinders(self) -> int:
        return self.last_cylinder - self.first_cylinder + 1


def make_zones(cylinders: int, zone_count: int,
               outer_spt: int, inner_spt: int) -> tuple[Zone, ...]:
    """Split ``cylinders`` into ``zone_count`` zones.

    Sectors per track decrease linearly from ``outer_spt`` (zone 0, the
    outer edge) to ``inner_spt`` (last zone), the usual ZBR layout.
    """
    if zone_count < 1:
        raise ValueError("zone_count must be >= 1")
    if cylinders < zone_count:
        raise ValueError("need at least one cylinder per zone")
    zones = []
    base, extra = divmod(cylinders, zone_count)
    start = 0
    for z in range(zone_count):
        width = base + (1 if z < extra else 0)
        if zone_count == 1:
            spt = outer_spt
        else:
            frac = z / (zone_count - 1)
            spt = round(outer_spt + (inner_spt - outer_spt) * frac)
        zones.append(Zone(start, start + width - 1, spt))
        start += width
    return tuple(zones)


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout of one disk."""

    cylinders: int
    tracks_per_cylinder: int
    sector_size: int
    zones: tuple[Zone, ...]
    #: Cylinder index of each zone boundary, precomputed for bisection.
    _zone_starts: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.cylinders < 1:
            raise ValueError("cylinders must be positive")
        if self.tracks_per_cylinder < 1:
            raise ValueError("tracks_per_cylinder must be positive")
        if self.sector_size < 1:
            raise ValueError("sector_size must be positive")
        expected = 0
        for zone in self.zones:
            if zone.first_cylinder != expected:
                raise ValueError("zones must tile the cylinder range")
            expected = zone.last_cylinder + 1
        if expected != self.cylinders:
            raise ValueError(
                f"zones cover {expected} cylinders, disk has {self.cylinders}"
            )
        object.__setattr__(
            self, "_zone_starts", tuple(z.first_cylinder for z in self.zones)
        )
        # Column form of the zone table for block_cylinders: exclusive
        # cumulative byte boundaries, per-cylinder capacity, and first
        # cylinder of each zone.  Plain attributes (not dataclass
        # fields) so eq/hash semantics are untouched.
        per_cyl = np.array(
            [z.sectors_per_track * self.tracks_per_cylinder * self.sector_size
             for z in self.zones], dtype=np.int64)
        zone_bytes = per_cyl * np.array(
            [z.cylinders for z in self.zones], dtype=np.int64)
        object.__setattr__(self, "_zone_byte_ends", np.cumsum(zone_bytes))
        object.__setattr__(
            self, "_zone_byte_starts",
            self._zone_byte_ends - zone_bytes,  # type: ignore[attr-defined]
        )
        object.__setattr__(self, "_zone_per_cyl", per_cyl)
        object.__setattr__(
            self, "_zone_first",
            np.array([z.first_cylinder for z in self.zones], dtype=np.int64),
        )
        # Scalar mirror for block_cylinder and capacity_bytes, which
        # run per request / per stream open: (exclusive byte end, byte
        # start, per-cylinder bytes, first cylinder) per zone.
        object.__setattr__(self, "_zone_rows", tuple(zip(
            self._zone_byte_ends.tolist(),  # type: ignore[attr-defined]
            self._zone_byte_starts.tolist(),  # type: ignore[attr-defined]
            per_cyl.tolist(),
            self._zone_first.tolist(),  # type: ignore[attr-defined]
        )))
        # Sectors per track of every cylinder, for the per-request
        # service path: one list index instead of the zone bisection.
        object.__setattr__(self, "cylinder_spt", np.repeat(
            [z.sectors_per_track for z in self.zones],
            [z.cylinders for z in self.zones]).tolist())

    def zone_of(self, cylinder: int) -> Zone:
        """The zone containing ``cylinder``."""
        self._check_cylinder(cylinder)
        lo, hi = 0, len(self.zones) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._zone_starts[mid] <= cylinder:
                lo = mid
            else:
                hi = mid - 1
        return self.zones[lo]

    def sectors_per_track(self, cylinder: int) -> int:
        self._check_cylinder(cylinder)
        return self.cylinder_spt[cylinder]  # type: ignore[attr-defined]

    def cylinder_capacity_bytes(self, cylinder: int) -> int:
        """Bytes stored on one cylinder."""
        spt = self.sectors_per_track(cylinder)
        return spt * self.tracks_per_cylinder * self.sector_size

    @property
    def capacity_bytes(self) -> int:
        """Total formatted capacity (the last zone's byte end)."""
        return self._zone_rows[-1][0]  # type: ignore[attr-defined]

    def block_cylinder(self, block: int, block_size: int) -> int:
        """Cylinder holding logical ``block`` of ``block_size`` bytes.

        Blocks are laid out sequentially from the outer edge; the mapping
        accounts for the varying per-cylinder capacity across zones.
        """
        if block < 0:
            raise ValueError("block must be non-negative")
        offset = block * block_size
        rows = self._zone_rows  # type: ignore[attr-defined]
        for end, start, per_cyl, first in rows:
            if offset < end:
                return first + (offset - start) // per_cyl
        raise ValueError(
            f"block {block} (size {block_size}) beyond disk capacity"
        )

    def block_cylinders(self, blocks: np.ndarray, block_size: int) -> np.ndarray:
        """Vectorized :meth:`block_cylinder` over an int64 block array.

        Same integer arithmetic as the scalar walk — the zone table is
        kept as cumulative byte boundaries so a single ``searchsorted``
        replaces the per-block zone scan.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.size and int(blocks.min()) < 0:
            raise ValueError("block must be non-negative")
        offsets = blocks * block_size
        ends: np.ndarray = self._zone_byte_ends  # type: ignore[attr-defined]
        zone = np.searchsorted(ends, offsets, side="right")
        if blocks.size and int(zone.max()) >= len(ends):
            bad = int(blocks[zone >= len(ends)][0])
            raise ValueError(
                f"block {bad} (size {block_size}) beyond disk capacity"
            )
        starts: np.ndarray = self._zone_byte_starts  # type: ignore[attr-defined]
        per_cyl: np.ndarray = self._zone_per_cyl  # type: ignore[attr-defined]
        first: np.ndarray = self._zone_first  # type: ignore[attr-defined]
        return first[zone] + (offsets - starts[zone]) // per_cyl[zone]

    def _check_cylinder(self, cylinder: int) -> None:
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(
                f"cylinder {cylinder} outside [0, {self.cylinders})"
            )
