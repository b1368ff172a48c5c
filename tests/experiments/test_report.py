"""Tests for the combined report generator (small configurations)."""

from functools import partial

import pytest

pytestmark = pytest.mark.slow

from repro.experiments import report as report_module
from repro.experiments.ablations import run_ablations
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.intstudy import run_integer_study
from repro.experiments.report import _fence, build_report


class TestFence:
    def test_wraps_in_code_block(self):
        fenced = _fence("a\nb")
        assert fenced.startswith("```\n")
        assert fenced.endswith("\n```")


@pytest.mark.slow
class TestBuildReport:
    @pytest.fixture(scope="class")
    def report(self):
        # TestPaperFigures (test_experiments.py) regenerates and checks
        # every full-size experiment; this only checks the rendering, so
        # it renders small runs.
        small = {
            "run_figure5": partial(run_figure5, programs=["svd"], simulate=False),
            "run_figure6": partial(run_figure6, register_counts=(16, 8)),
            "run_figure7": partial(run_figure7, routines=[("cedeta", "dqrdc")]),
            "run_ablations": partial(run_ablations, programs=["svd"]),
            "run_integer_study": partial(run_integer_study, register_counts=(16, 8)),
        }
        with pytest.MonkeyPatch.context() as patch:
            for name, runner in small.items():
                patch.setattr(report_module, name, runner)
            return build_report(array_size=64, intsuite_size=64)

    def test_contains_every_section(self, report):
        for heading in (
            "# Reproduction report",
            "## Headlines",
            "## Figure 5",
            "## Figure 6",
            "## Figure 7",
            "## Ablations",
            "## Integer study",
        ):
            assert heading in report

    def test_headlines_mention_svd(self, report):
        assert "SVD" in report
        assert "the paper measured 51%" in report

    def test_tables_fenced(self, report):
        assert report.count("```") >= 10  # five fenced tables

    def test_markdown_is_selfcontained(self, report):
        assert "EXPERIMENTS.md" in report
        assert report.endswith("\n")
