"""Tests for the CLI argument parser itself (fast; no experiments run)."""

import pytest

from repro.cli import build_parser


@pytest.fixture(scope="module")
def parser():
    return build_parser()


class TestParser:
    def test_all_subcommands_registered(self, parser):
        args = parser.parse_args(["workloads"])
        assert args.command == "workloads"
        for command, extra in [
            ("compile", ["x.f"]),
            ("run", ["x.f"]),
            ("allocate", ["x.f"]),
            ("figures", []),
            ("report", []),
        ]:
            parsed = parser.parse_args([command] + extra)
            assert parsed.command == command

    def test_run_flags(self, parser):
        args = parser.parse_args(
            [
                "run",
                "x.f",
                "--allocate",
                "spill-all",
                "--int-regs",
                "8",
                "--float-regs",
                "4",
                "--rematerialize",
                "--split-ranges",
                "--coalesce",
                "conservative",
            ]
        )
        assert args.allocate == "spill-all"
        assert args.int_regs == 8
        assert args.float_regs == 4
        assert args.rematerialize
        assert args.split_ranges
        assert args.coalesce == "conservative"

    def test_allocate_method_choices(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args(["allocate", "x.f", "--method", "magic"])

    def test_report_defaults(self, parser):
        args = parser.parse_args(["report"])
        assert args.out == "results/REPORT.md"
        assert args.array_size == 256

    def test_figures_accepts_names(self, parser):
        args = parser.parse_args(["figures", "figure6", "intstudy"])
        assert args.names == ["figure6", "intstudy"]

    def test_allocate_journal_flags(self, parser):
        args = parser.parse_args(
            ["allocate", "x.f", "--journal", "a.journal", "--no-resume"]
        )
        assert args.journal == "a.journal"
        assert args.no_resume

    def test_torture_defaults(self, parser):
        args = parser.parse_args(["torture"])
        assert args.command == "torture"
        assert args.kills == 10
        assert args.seed == 0
        assert args.step_max == 4
        assert args.torn_rate == pytest.approx(0.34)
        assert args.journal is None

    def test_torture_flags(self, parser):
        args = parser.parse_args(
            ["torture", "--workload", "quicksort", "--kills", "25",
             "--seed", "7", "--torn-rate", "0.5", "--jobs", "2",
             "--journal", "t.journal", "--json", "-"]
        )
        assert args.workload == ["quicksort"]
        assert args.kills == 25
        assert args.torn_rate == pytest.approx(0.5)
        assert args.journal == "t.journal"

    def test_trace_serve_replay_flags(self, parser):
        args = parser.parse_args(
            ["trace", "--serve-replay", "requests.journal",
             "--replay-all", "--out", "replays/"]
        )
        assert args.serve_replay == "requests.journal"
        assert args.replay_all
        assert args.workload is None
        assert args.out == "replays/"

    def test_trace_workload_is_now_optional(self, parser):
        args = parser.parse_args(["trace"])
        assert args.workload is None
        assert args.serve_replay is None

    def test_tail_defaults_and_flags(self, parser):
        args = parser.parse_args(["tail"])
        assert args.command == "tail"
        assert args.port == 7632
        assert not args.follow
        assert args.since == 0
        assert args.kind is None
        args = parser.parse_args(
            ["tail", "--follow", "--interval", "0.2", "--since", "40",
             "--kind", "breaker", "--limit", "10", "--port", "9000"]
        )
        assert args.follow
        assert args.interval == pytest.approx(0.2)
        assert args.since == 40
        assert args.kind == "breaker"
        assert args.limit == 10
        assert args.port == 9000

    def test_serve_trace_dir_flag(self, parser):
        args = parser.parse_args(["serve", "--trace-dir", "spool/"])
        assert args.trace_dir == "spool/"
        assert parser.parse_args(["serve"]).trace_dir is None

    def test_missing_command_exits(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args([])
