"""Degraded-mode RAID-5 array tests (failure injection)."""

from __future__ import annotations

import pytest

from repro.disk.raid import Raid5Array
from repro.faults import DiskFailure, FaultPlan, RetryPolicy, TransientErrors
from repro.schedulers.fcfs import FCFSScheduler
from repro.sim.array import (
    LogicalRequest,
    RebuildConfig,
    run_array_simulation,
)


def reads(count, stride=3):
    return [
        LogicalRequest(i, i * 10.0, logical_block=i * stride,
                       deadline_ms=1e9, priorities=(0,))
        for i in range(count)
    ]


class TestDegradedMode:
    def test_all_requests_still_complete(self):
        result = run_array_simulation(
            reads(40), FCFSScheduler, priority_levels=4, failed_disk=2
        )
        assert result.logical_metrics.completed == 40

    def test_failed_member_gets_no_work(self):
        result = run_array_simulation(
            reads(40), FCFSScheduler, priority_levels=4, failed_disk=2
        )
        assert result.disk_metrics[2].completed == 0

    def test_reconstruction_amplifies_reads(self):
        healthy = run_array_simulation(
            reads(40), FCFSScheduler, priority_levels=4
        )
        degraded = run_array_simulation(
            reads(40), FCFSScheduler, priority_levels=4, failed_disk=2
        )
        # Healthy reads: one op each.  Degraded: reads hitting the
        # failed member fan out to all four survivors.
        assert healthy.physical_ops == 40
        assert degraded.physical_ops > 40

    def test_degraded_writes_skip_failed_member(self):
        writes = [
            LogicalRequest(i, i * 10.0, logical_block=i * 3,
                           deadline_ms=1e9, priorities=(0,),
                           is_write=True)
            for i in range(20)
        ]
        result = run_array_simulation(
            writes, FCFSScheduler, priority_levels=4, failed_disk=0
        )
        assert result.logical_metrics.completed == 20
        assert result.disk_metrics[0].completed == 0
        # Surviving ops are fewer than the healthy 4-per-write.
        assert result.physical_ops < 80

    def test_degraded_slower_than_healthy(self):
        healthy = run_array_simulation(
            reads(40, stride=1), FCFSScheduler, priority_levels=4
        )
        degraded = run_array_simulation(
            reads(40, stride=1), FCFSScheduler, priority_levels=4,
            failed_disk=1
        )
        assert (degraded.logical_metrics.makespan_ms
                >= healthy.logical_metrics.makespan_ms)

    def test_invalid_failed_disk(self):
        with pytest.raises(ValueError):
            run_array_simulation(reads(1), FCFSScheduler, failed_disk=9)

    @pytest.mark.parametrize("disk", [5, 7])
    def test_fault_on_missing_member_rejected(self, disk):
        """A plan naming a member the array lacks would otherwise run
        as if healthy (no retries, nothing failed)."""
        plan = FaultPlan([DiskFailure(disk=disk, start_ms=0.0,
                                      end_ms=100.0)])
        with pytest.raises(ValueError, match="out of range"):
            run_array_simulation(reads(5), FCFSScheduler,
                                 priority_levels=4, fault_plan=plan)

    def test_fault_on_hot_spare_accepted(self):
        """With a rebuild spare the array has one more member."""
        plan = FaultPlan([DiskFailure(disk=1, start_ms=0.0, end_ms=50.0),
                          TransientErrors(disk=5, start_ms=0.0,
                                          end_ms=50.0, probability=0.5)])
        result = run_array_simulation(
            reads(5), FCFSScheduler, priority_levels=4, fault_plan=plan,
            rebuild=RebuildConfig(stripes=2, interval_ms=10.0))
        assert result.rebuild_ops > 0


def block_on_disk(disk: int, raid: Raid5Array | None = None) -> int:
    """A logical block whose *data* lives on member ``disk``."""
    raid = raid or Raid5Array(disks=5)
    for block in range(raid.disks * raid.disks):
        if raid.map_block(block)[0] == disk:
            return block
    raise AssertionError("unreachable: every disk holds data blocks")


class TestMidStripeFailure:
    """A member dies while ops are in flight: the logical request is
    retried and re-expanded against the degraded geometry."""

    def run_one(self, *, window=(5.0, 10_000.0), attempts=3,
                backoff=50.0):
        request = LogicalRequest(0, 0.0,
                                 logical_block=block_on_disk(2),
                                 deadline_ms=1e9, priorities=(0,))
        plan = FaultPlan([DiskFailure(disk=2, start_ms=window[0],
                                      end_ms=window[1])])
        return run_array_simulation(
            [request], FCFSScheduler, priority_levels=4,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=attempts,
                                     backoff_ms=backoff),
        )

    def test_in_flight_op_fails_and_request_retries(self):
        result = self.run_one()
        assert result.retries == 1
        assert result.failed_logical == 0
        assert result.logical_metrics.completed == 1
        assert result.logical_metrics.served == 1

    def test_retry_reconstructs_from_parity(self):
        """The re-expansion is the RAID-5 fan-out: 1 failed op plus
        one reconstruction read on each of the four survivors."""
        result = self.run_one()
        assert result.physical_ops == 1 + 4
        per_member = [m.completed for m in result.disk_metrics]
        # The failed member completed nothing; every survivor did
        # exactly its reconstruction share.
        assert per_member[2] == 0
        assert sorted(per_member[:2] + per_member[3:]) == [1, 1, 1, 1]

    def test_write_amplification_counts_retried_ops(self):
        """Amplification charges the failed attempt *and* the fan-out:
        5 physical ops for one logical read, vs 1 healthy."""
        result = self.run_one()
        assert result.write_amplification == pytest.approx(5.0)
        healthy = run_array_simulation(
            [LogicalRequest(0, 0.0, logical_block=block_on_disk(2),
                            deadline_ms=1e9, priorities=(0,))],
            FCFSScheduler, priority_levels=4,
        )
        assert healthy.write_amplification == pytest.approx(1.0)

    def test_recovered_member_serves_again(self):
        """A failure window that closes before the retry lands means
        the re-issued op goes back to the original member."""
        result = self.run_one(window=(5.0, 20.0), backoff=500.0)
        assert result.retries == 1
        assert result.logical_metrics.completed == 1
        # Retry happened after recovery: no fan-out, just the re-read.
        assert result.physical_ops == 2
        assert result.disk_metrics[2].completed == 1

    def test_mid_stripe_write_retries(self):
        """A write caught by the failure re-expands without the dead
        member (its share is reconstructed on rebuild)."""
        request = LogicalRequest(0, 0.0,
                                 logical_block=block_on_disk(1),
                                 deadline_ms=1e9, priorities=(0,),
                                 is_write=True)
        plan = FaultPlan([DiskFailure(disk=1, start_ms=5.0,
                                      end_ms=10_000.0)])
        result = run_array_simulation(
            [request], FCFSScheduler, priority_levels=4,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, backoff_ms=50.0),
        )
        assert result.logical_metrics.completed == 1
        assert result.retries >= 1
        assert result.failed_logical == 0


class TestFaultPlanArray:
    def test_persistent_transient_errors_exhaust_retries(self):
        plan = FaultPlan([TransientErrors(disk=3, start_ms=0.0,
                                          end_ms=1e9, probability=1.0)])
        request = LogicalRequest(0, 0.0,
                                 logical_block=block_on_disk(3),
                                 deadline_ms=1e9, priorities=(0,))
        result = run_array_simulation(
            [request], FCFSScheduler, priority_levels=4,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, backoff_ms=10.0),
        )
        assert result.failed_logical == 1
        assert result.retries == 1
        assert result.logical_metrics.dropped == 1
        assert result.logical_metrics.served == 0

    def test_two_members_down_fails_reconstruction(self):
        """RAID-5 survives one failure, not two: a read needing the
        doubly-degraded stripe is abandoned, not served garbage."""
        plan = FaultPlan([
            DiskFailure(disk=1, start_ms=0.0, end_ms=1e9),
            DiskFailure(disk=2, start_ms=0.0, end_ms=1e9),
        ])
        requests = reads(10, stride=1)
        result = run_array_simulation(
            requests, FCFSScheduler, priority_levels=4, fault_plan=plan,
        )
        assert result.failed_logical == len(requests)
        assert result.logical_metrics.dropped == len(requests)
        assert result.physical_ops == 0

    def test_dynamic_window_matches_static_degradation(self):
        """A plan window covering the whole run behaves like the
        legacy static failed_disk mode."""
        plan = FaultPlan([DiskFailure(disk=2, start_ms=0.0,
                                      end_ms=1e9)])
        dynamic = run_array_simulation(
            reads(40), FCFSScheduler, priority_levels=4,
            fault_plan=plan,
        )
        static = run_array_simulation(
            reads(40), FCFSScheduler, priority_levels=4, failed_disk=2,
        )
        assert dynamic.physical_ops == static.physical_ops
        assert dynamic.logical_metrics.completed == \
            static.logical_metrics.completed
        assert dynamic.disk_metrics[2].completed == 0

    def test_deterministic_under_identical_plans(self):
        plan = FaultPlan([
            TransientErrors(disk=0, start_ms=0.0, end_ms=1e9,
                            probability=0.3),
            DiskFailure(disk=4, start_ms=100.0, end_ms=250.0),
        ], seed=7)
        runs = [
            run_array_simulation(
                reads(60, stride=2), FCFSScheduler, priority_levels=4,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=3,
                                         backoff_ms=20.0),
            )
            for _ in range(2)
        ]
        assert runs[0].physical_ops == runs[1].physical_ops
        assert runs[0].retries == runs[1].retries
        assert runs[0].failed_logical == runs[1].failed_logical
        assert (runs[0].logical_metrics.makespan_ms
                == runs[1].logical_metrics.makespan_ms)


class TestHotSpareRebuild:
    def plan(self):
        return FaultPlan([DiskFailure(disk=2, start_ms=50.0,
                                      end_ms=1e9)])

    def test_rebuild_traffic_competes_through_schedulers(self):
        rebuild = RebuildConfig(stripes=6, interval_ms=20.0, spare=True)
        result = run_array_simulation(
            reads(30), FCFSScheduler, priority_levels=4,
            fault_plan=self.plan(), rebuild=rebuild,
        )
        # 6 stripes x (4 survivor reads + 1 spare write).
        assert result.rebuild_ops == 6 * 5
        # The spare (member 5) only ever sees rebuild writes.
        assert len(result.disk_metrics) == 6
        assert result.disk_metrics[5].completed == 6
        # Foreground requests all still complete.
        assert result.logical_metrics.completed == 30

    def test_rebuild_without_spare(self):
        rebuild = RebuildConfig(stripes=4, interval_ms=20.0,
                                spare=False)
        result = run_array_simulation(
            reads(10), FCFSScheduler, priority_levels=4,
            fault_plan=self.plan(), rebuild=rebuild,
        )
        assert result.rebuild_ops == 4 * 4
        assert len(result.disk_metrics) == 5

    def test_rebuild_stops_after_recovery(self):
        """Stripes scheduled past the member's recovery are skipped."""
        plan = FaultPlan([DiskFailure(disk=2, start_ms=50.0,
                                      end_ms=100.0)])
        rebuild = RebuildConfig(stripes=10, interval_ms=20.0,
                                spare=False)
        result = run_array_simulation(
            reads(10), FCFSScheduler, priority_levels=4,
            fault_plan=plan, rebuild=rebuild,
        )
        # Only the stripes paced inside the (short) failure window ran.
        assert 0 < result.rebuild_ops < 10 * 4

    def test_rebuild_does_not_inflate_logical_metrics(self):
        rebuild = RebuildConfig(stripes=6, interval_ms=20.0, spare=True)
        with_rebuild = run_array_simulation(
            reads(30), FCFSScheduler, priority_levels=4,
            fault_plan=self.plan(), rebuild=rebuild,
        )
        without = run_array_simulation(
            reads(30), FCFSScheduler, priority_levels=4,
            fault_plan=self.plan(),
        )
        assert (with_rebuild.logical_metrics.completed
                == without.logical_metrics.completed == 30)
        # write_amplification charges only foreground physical ops:
        # rebuild traffic is tallied in rebuild_ops, not physical_ops.
        assert with_rebuild.physical_ops == without.physical_ops
