"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main

SOURCE = """
program p
  k = 0
  do i = 1, 5
    k = k + i
  end do
  print k
end
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "sum.f"
    path.write_text(SOURCE)
    return str(path)


class TestCompile:
    def test_prints_ir(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "func @p()" in out
        assert "cbr" in out

    def test_optimize_flag(self, source_file, capsys):
        main(["compile", source_file])
        plain = capsys.readouterr().out
        main(["compile", source_file, "--optimize"])
        optimized = capsys.readouterr().out
        assert len(optimized.splitlines()) <= len(plain.splitlines())

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.f"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.f"
        path.write_text("program p\ngoto 10\nend\n")
        assert main(["compile", str(path)]) == 1
        assert "goto" in capsys.readouterr().err


class TestRun:
    def test_virtual_run(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "15"
        assert "virtual" in captured.err

    def test_allocated_run(self, source_file, capsys):
        assert main(
            ["run", source_file, "--allocate", "briggs", "--int-regs", "6"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "15"
        assert "allocated (briggs)" in captured.err

    def test_chaitin_allocated_run(self, source_file, capsys):
        assert main(["run", source_file, "--allocate", "chaitin"]) == 0
        assert capsys.readouterr().out.strip() == "15"


class TestAllocate:
    def test_stats_table(self, source_file, capsys):
        assert main(["allocate", source_file]) == 0
        out = capsys.readouterr().out
        assert "Routine" in out
        assert "p" in out
        assert "briggs" in out

    def test_restricted_target_in_title(self, source_file, capsys):
        main(["allocate", source_file, "--int-regs", "8"])
        assert "i8" in capsys.readouterr().out


class TestFigures:
    def test_unknown_figure_rejected(self, tmp_path, capsys):
        assert main(["figures", "figure99", "--out", str(tmp_path)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_figure6_generated(self, tmp_path, capsys):
        assert (
            main(
                [
                    "figures",
                    "figure6",
                    "--out",
                    str(tmp_path),
                    "--array-size",
                    "64",
                ]
            )
            == 0
        )
        assert (tmp_path / "figure6.txt").exists()
        assert "Registers" in capsys.readouterr().out

    @pytest.mark.slow
    def test_extension_tables_match_committed(self, tmp_path):
        """The two tables beyond the paper's figures are written by
        `repro figures` too, exactly as committed."""
        names = ["figure6_extended", "svd_headline"]
        assert main(["figures", *names, "--out", str(tmp_path)]) == 0
        results = pathlib.Path(__file__).resolve().parent.parent / "results"
        for name in names:
            assert (tmp_path / f"{name}.txt").read_text() == (
                results / f"{name}.txt"
            ).read_text()


class TestWorkloads:
    def test_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("svd", "linpack", "quicksort"):
            assert name in out


class TestAllocateJson:
    def test_json_file_alongside_table(self, source_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["allocate", source_file, "--json", str(out)]) == 0
        assert "Routine" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["schema"] == "repro-metrics/1"
        assert document["meta"]["method"] == "briggs"
        assert "p" in document["functions"]
        for pass_dict in document["functions"]["p"]["stats"]["passes"]:
            assert "reused" in pass_dict
            assert "webs_split" in pass_dict

    def test_json_dash_replaces_table_on_stdout(self, source_file, capsys):
        assert main(["allocate", source_file, "--json", "-"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)  # pure JSON — no table mixed in
        assert document["schema"] == "repro-metrics/1"


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.observability import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["trace", "quicksort", "--out", str(out)]) == 0
        summary = validate_chrome_trace(out)
        assert summary["spans"] > 0
        assert summary["counters"] > 0
        assert "spans" in capsys.readouterr().err

    def test_metrics_sidecar(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "trace", "quicksort", "--out", str(out),
            "--metrics", str(metrics),
        ]) == 0
        document = json.loads(metrics.read_text())
        assert document["schema"] == "repro-metrics/1"
        assert document["meta"]["workload"] == "quicksort"
        assert document["counters"]["live_ranges"] > 0

    def test_unknown_workload(self, capsys):
        assert main(["trace", "nonesuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_without_workload_or_replay_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "workload" in capsys.readouterr().err


class TestServeReplay:
    """``repro trace --serve-replay``: post-mortem tracing of a serve
    journal's request backlog."""

    def write_journal(self, path, records):
        from repro.durability.journal import Journal

        with Journal(path, sync=False) as journal:
            for record in records:
                journal.append(record)

    def request(self, jid, rid):
        return {"type": "request", "jid": jid, "id": rid,
                "source": SOURCE, "name": "p", "method": "briggs"}

    def test_replays_only_the_unanswered_backlog(self, tmp_path, capsys):
        from repro.observability import validate_chrome_trace

        journal = tmp_path / "serve.journal"
        self.write_journal(journal, [
            self.request(1, "a"),
            {"type": "response", "jid": 1, "status": 200},
            self.request(2, "b"),
        ])
        out_dir = tmp_path / "replays"
        assert main(["trace", "--serve-replay", str(journal),
                     "--out", str(out_dir)]) == 0
        traces = sorted(p.name for p in out_dir.glob("*.json"))
        assert traces == ["trace-replay-2.json"]
        summary = validate_chrome_trace(out_dir / traces[0])
        assert summary["spans"] > 0
        err = capsys.readouterr().err
        assert "jid 2" in err
        assert "1/1 requests re-traced" in err

    def test_replay_all_ignores_responses(self, tmp_path, capsys):
        journal = tmp_path / "serve.journal"
        self.write_journal(journal, [
            self.request(1, "a"),
            {"type": "response", "jid": 1, "status": 200},
            self.request(2, "b"),
        ])
        out_dir = tmp_path / "replays"
        assert main(["trace", "--serve-replay", str(journal),
                     "--replay-all", "--out", str(out_dir)]) == 0
        traces = sorted(p.name for p in out_dir.glob("*.json"))
        assert traces == ["trace-replay-1.json", "trace-replay-2.json"]

    def test_fully_answered_journal_falls_back_to_all(self, tmp_path,
                                                      capsys):
        journal = tmp_path / "serve.journal"
        self.write_journal(journal, [
            self.request(1, "a"),
            {"type": "response", "jid": 1, "status": 200},
        ])
        out_dir = tmp_path / "replays"
        assert main(["trace", "--serve-replay", str(journal),
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "trace-replay-1.json").exists()
        assert "no unanswered backlog" in capsys.readouterr().err

    def test_empty_journal_is_an_error(self, tmp_path, capsys):
        journal = tmp_path / "serve.journal"
        self.write_journal(journal, [])
        assert main(["trace", "--serve-replay", str(journal),
                     "--out", str(tmp_path / "replays")]) == 1
        assert "no journaled requests" in capsys.readouterr().err
