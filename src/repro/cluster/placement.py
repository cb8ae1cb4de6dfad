"""Pluggable stream placement: which array should own a new stream?

The cluster tier keeps placement *policy* separate from admission
*budgets* (Yashvir & Prakash make the case that scheduling-algorithm
selection belongs behind an interface; the same argument applies one
level up).  A :class:`PlacementPolicy` owns the only ordering code: its
:meth:`~PlacementPolicy.candidates` walk yields a stream's **preference
order** over arrays lazily, and the global admission controller
consumes it until a budget accepts (spillover) or the order is
exhausted (reject); :meth:`~PlacementPolicy.first_choice` names the
head of that order without starting the walk.  A load-aware policy
overrides :meth:`~PlacementPolicy.update` and is then told about every
budget change.

Two policies cover the classic trade-off:

* :class:`ConsistentHashPlacement` — a seeded hash ring with virtual
  nodes.  Placement is a pure function of ``(seed, member set, stream
  key)``: joins/leaves move only the streams adjacent to the changed
  arcs (~1/N of them), which the hypothesis churn property pins.
* :class:`LeastReservedPlacement` — load-aware: arrays ordered by
  ascending reserved utilization, so new streams always land on the
  emptiest budget.  Ties break by a seeded per-(stream, array) hash,
  never by dict order, so the preference order is deterministic.

All hashing is SHA-256 over explicit ``repr`` keys — no Python
``hash()`` (randomized per process) anywhere, which is what makes a
placement decision reproducible across workers and runs.
"""

from __future__ import annotations

import bisect
import hashlib
from abc import ABC, abstractmethod
from typing import Iterator, Sequence


def stable_hash(*labels: object) -> int:
    """A 64-bit SHA-256 point for an explicit label path.

    The key is built from ``repr`` of a tuple (like
    :func:`repro.sim.rng.spawn_seed`) so sibling labels cannot collide
    through string formatting.
    """
    payload = repr(tuple(str(label) for label in labels))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PlacementPolicy(ABC):
    """Interface of all stream-placement policies."""

    #: Registry name, e.g. ``"ring"``.
    name: str = "abstract"

    @property
    @abstractmethod
    def members(self) -> tuple[int, ...]:
        """The array ids this policy orders, ascending."""

    @abstractmethod
    def candidates(self, stream_key: int) -> Iterator[int]:
        """Array ids for ``stream_key``, best candidate first, lazily.

        Every member appears exactly once.  The admission controller
        applies the budget checks and stops drawing at the first array
        that fits, so a policy computes only the prefix it is asked for.
        """

    def first_choice(self, stream_key: int) -> int:
        """The first array :meth:`candidates` would yield.

        The admission fast path tests this array alone, so a policy
        that can name it without starting the walk should override
        this.
        """
        return next(iter(self.candidates(stream_key)))

    def update(self, array_id: int, reserved: float,
               rebuilding: bool) -> None:
        """Observe one array's reserved share and rebuild flag.

        Called on every budget change, but only for a policy that
        overrides this method; a policy that ignores load keeps this
        no-op and is never called.
        """


class ConsistentHashPlacement(PlacementPolicy):
    """Seeded consistent-hash ring with virtual nodes.

    Each array contributes ``replicas`` points to a 64-bit ring, keyed
    by ``(seed, "ring", array_id, replica)``.  A stream hashes to a
    ring position and its preference order is the clockwise walk from
    there, keeping the first occurrence of each array.  Because every
    point depends only on the seed and the array id, adding or removing
    an array perturbs only the arcs it owns: at most ~S/N of S placed
    streams move, and only onto (or off) the changed array.

    Parameters
    ----------
    array_ids:
        Initial ring membership.
    seed:
        Root seed of every ring point (and nothing else).
    replicas:
        Virtual nodes per array; more replicas tighten the max/mean
        load ratio at the cost of a larger ring.
    """

    name = "ring"

    def __init__(self, array_ids: Sequence[int] = (), *, seed: int = 0,
                 replicas: int = 128) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._seed = seed
        self.replicas = replicas
        # stable_hash(seed, "stream", key) hashes the repr of the label
        # strings; for an int key that is this prefix, the key's digits
        # and the closing quote, so only the digits are encoded per
        # stream.
        self._stream_prefix = repr((str(seed), "stream", ""))[:-2].encode()
        self._members: set[int] = set()
        #: Sorted ring points and their owning arrays (parallel lists).
        self._points: list[int] = []
        self._owners: list[int] = []
        self.join(*array_ids)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def join(self, *array_ids: int) -> None:
        """Add the arrays' virtual nodes to the ring with one sort."""
        members = set(self._members)
        for array_id in array_ids:
            if array_id in members:
                raise ValueError(f"array {array_id} already on the ring")
            members.add(array_id)
        ring = list(zip(self._points, self._owners))
        ring += [(stable_hash(self._seed, "ring", array_id, replica),
                  array_id)
                 for array_id in array_ids
                 for replica in range(self.replicas)]
        ring.sort()
        self._members = members
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]

    def leave(self, array_id: int) -> None:
        """Remove ``array_id``'s virtual nodes from the ring."""
        if array_id not in self._members:
            raise KeyError(f"array {array_id} not on the ring")
        self._members.discard(array_id)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != array_id]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def stream_point(self, stream_key: int) -> int:
        """``stable_hash(seed, "stream", stream_key)`` for an int key."""
        digest = hashlib.sha256(
            self._stream_prefix + str(stream_key).encode() + b"')"
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def first_choice(self, stream_key: int) -> int:
        """The ring successor of the stream's point: one hash, one
        bisect."""
        owners = self._owners
        if not owners:
            raise RuntimeError("ring has no members")
        index = bisect.bisect_right(self._points,
                                    self.stream_point(stream_key))
        return owners[index % len(owners)]

    def candidates(self, stream_key: int) -> Iterator[int]:
        """Clockwise walk from the stream's point: distinct owners."""
        if not self._points:
            return
        start = bisect.bisect_right(self._points,
                                    self.stream_point(stream_key))
        owners = self._owners
        n = len(owners)
        seen: set[int] = set()
        members = len(self._members)
        for step in range(n):
            owner = owners[(start + step) % n]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == members:
                    return


class LeastReservedPlacement(PlacementPolicy):
    """Load-aware placement: emptiest reserved budget first.

    Arrays are ordered by ascending reserved utilization (rebuilding
    arrays demoted to the tail so healthy capacity absorbs new work),
    with a seeded ``(stream, array)`` hash breaking exact ties — two
    arrays at identical load split the incoming streams evenly instead
    of always favouring the lower id.

    The order lives in a sorted ``(rebuilding, reserved, array)`` index
    kept current by :meth:`update`, so a decision tie-hashes only the
    equal-load groups it actually visits instead of the whole fleet.
    """

    name = "least-reserved"

    def __init__(self, array_ids: Sequence[int] = (), *,
                 seed: int = 0) -> None:
        self._seed = seed
        self._index: list[tuple[bool, float, int]] = []
        self._keys: dict[int, tuple[bool, float, int]] = {}
        for array_id in array_ids:
            self.update(array_id, 0.0, False)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._keys))

    def tie_key(self, stream_key: int, array_id: int) -> int:
        """The seeded per-(stream, array) tie-break hash."""
        return stable_hash(self._seed, "tie", stream_key, array_id)

    def update(self, array_id: int, reserved: float,
               rebuilding: bool) -> None:
        old = self._keys.get(array_id)
        new = (rebuilding, round(reserved, 12), array_id)
        if old == new:
            return
        if old is not None:
            del self._index[bisect.bisect_left(self._index, old)]
        bisect.insort(self._index, new)
        self._keys[array_id] = new

    def candidates(self, stream_key: int) -> Iterator[int]:
        """Members in index order, tie-hashed one equal-load group at
        a time."""
        index = self._index
        i = 0
        n = len(index)
        while i < n:
            j = i
            group_key = index[i][:2]
            while j < n and index[j][:2] == group_key:
                j += 1
            group = [index[k][2] for k in range(i, j)]
            if len(group) > 1:
                group.sort(key=lambda array_id:
                           self.tie_key(stream_key, array_id))
            yield from group
            i = j


#: Registry of placement policies by name.
PLACEMENTS = ("ring", "least-reserved")


def make_placement(name: str, array_ids: Sequence[int], *,
                   seed: int = 0, replicas: int = 128) -> PlacementPolicy:
    """Instantiate a placement policy by registry name."""
    if name == "ring":
        return ConsistentHashPlacement(array_ids, seed=seed,
                                       replicas=replicas)
    if name == "least-reserved":
        return LeastReservedPlacement(array_ids, seed=seed)
    raise KeyError(
        f"unknown placement policy {name!r}; known: "
        + ", ".join(PLACEMENTS)
    )
