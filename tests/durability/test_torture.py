"""Kill-torture: SIGKILLed runs resume to the unkilled reference."""

import pytest

from repro.durability.torture import (
    TortureReport,
    plan_kill_schedule,
    run_torture,
)

from tests.durability.test_checkpoint import SOURCE

slow = pytest.mark.slow


class TestSchedule:
    def test_deterministic_and_ascending(self):
        first = plan_kill_schedule(kills=20, seed=7)
        again = plan_kill_schedule(kills=20, seed=7)
        assert first == again
        points = [point for point, _torn in first]
        assert points == sorted(points)
        gaps = [b - a for a, b in zip(points, points[1:])]
        assert all(gap >= 2 for gap in gaps)
        assert points[0] >= 2

    def test_seed_changes_schedule(self):
        assert plan_kill_schedule(10, seed=1) != plan_kill_schedule(10, seed=2)

    def test_step_max_validated(self):
        with pytest.raises(ValueError, match="step_max"):
            plan_kill_schedule(5, seed=0, step_max=1)

    def test_torn_rate_extremes(self):
        all_torn = plan_kill_schedule(10, seed=0, torn_rate=1.0)
        assert all(torn for _point, torn in all_torn)
        none_torn = plan_kill_schedule(10, seed=0, torn_rate=0.0)
        assert not any(torn for _point, torn in none_torn)


class TestTortureRun:
    def test_requires_input(self):
        with pytest.raises(ValueError, match="at least one"):
            run_torture()

    def test_zero_kills_is_plain_run(self, tmp_path):
        report = run_torture(
            sources=[SOURCE], kills=0,
            journal_path=tmp_path / "t.journal",
        )
        assert report.ok
        assert report.kills_delivered == 0
        assert report.reasons == ["completed"]
        assert report.identical
        assert report.re_executed == 0

    def test_kills_delivered_and_identical(self, tmp_path):
        report = run_torture(
            sources=[SOURCE], kills=3, seed=11, step_max=3,
            journal_path=tmp_path / "t.journal",
        )
        assert report.ok, repr(report)
        assert report.kills_delivered >= 1
        assert report.reasons[-1] == "completed"
        assert set(report.reasons[:-1]) == {"kill"}
        assert report.identical
        assert report.leaked_workers == []
        assert report.re_executed <= report.re_executed_bound
        assert report.functions == 3

    def test_torn_deaths_recovered(self, tmp_path):
        report = run_torture(
            sources=[SOURCE], kills=3, seed=5, step_max=3, torn_rate=1.0,
            journal_path=tmp_path / "t.journal",
        )
        assert report.ok, repr(report)
        assert report.torn_delivered == report.kills_delivered
        assert report.identical

    def test_schedule_outruns_task(self, tmp_path):
        # Far more kill points than the tiny module has appends: the
        # surplus simply never fires and the run still completes.
        report = run_torture(
            sources=[SOURCE], kills=30, seed=3, step_max=2,
            journal_path=tmp_path / "t.journal",
        )
        assert report.ok, repr(report)
        assert report.kills_delivered < report.kills_requested
        assert report.identical

    def test_report_round_trips_to_dict(self, tmp_path):
        report = run_torture(
            sources=[SOURCE], kills=1, seed=2,
            journal_path=tmp_path / "t.journal",
        )
        data = report.as_dict()
        assert data["ok"] == report.ok
        assert data["kills_delivered"] == report.kills_delivered
        assert data["reasons"] == report.reasons
        assert "TortureReport" in repr(report)

    @slow
    def test_pool_path_survives_kills(self, tmp_path):
        from repro.regalloc.pool import RESPONSE_CACHE, shutdown_pools

        shutdown_pools()
        RESPONSE_CACHE.clear()
        try:
            report = run_torture(
                sources=[SOURCE], kills=2, seed=9, step_max=3, jobs=2,
                journal_path=tmp_path / "t.journal",
            )
            assert report.ok, repr(report)
            assert report.identical
            assert report.leaked_workers == []
        finally:
            shutdown_pools()
            RESPONSE_CACHE.clear()


class TestAcceptance:
    @slow
    def test_registry_allocation_survives_25_seeded_kills(self, tmp_path):
        """The ISSUE's acceptance criterion, verbatim: a supervised
        allocation of the full workload registry, SIGKILLed at >= 25
        distinct seeded points (a third of them mid-record), resumes to
        a result byte-identical to the unkilled serial reference,
        within the restart budget, with zero leaked workers and rework
        bounded by (kills + 1) x the in-flight function count."""
        from repro.workloads import all_workloads

        workloads = sorted(all_workloads())
        report = run_torture(
            workloads=workloads, kills=25, seed=0, step_max=2,
            journal_path=tmp_path / "registry.journal",
        )
        assert report.kills_delivered == 25
        assert len({point for point, _ in report.schedule}) == 25
        assert report.torn_delivered > 0  # some deaths left torn tails
        assert report.identical, report.mismatched
        assert report.mismatched == []
        assert report.leaked_workers == []
        assert report.re_executed <= report.re_executed_bound
        assert report.reasons.count("kill") == 25
        assert report.reasons[-1] == "completed"
        assert report.functions == sum(
            len(all_workloads()[name].compile().functions)
            for name in workloads
        )
        assert report.ok, repr(report)


class TestProcessKillFault:
    def test_fault_registered(self):
        from repro.robustness.faults import FAULTS

        fault = FAULTS["process_kill"]
        assert fault.kind == "process"
        assert fault.expect == "degraded"

    @slow
    def test_probe_contract_holds(self):
        from repro.robustness.faults import probe_fault

        probe = probe_fault("process_kill", seed=1)
        assert probe.ok, repr(probe)
        assert "supervisor" in probe.detected_by
