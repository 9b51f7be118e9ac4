"""Unit tests for the report builder."""

from repro.analysis.report import build_report


class TestReportBuilder:
    def test_build_report_structure(self):
        report = build_report(
            table_scale=0.02,
            usability_seed=66,
            longterm_days=1,
        )
        assert "# Overhaul reproduction" in report
        assert "Table I" in report
        assert "Figure 1" in report
        assert "usability" in report
        assert "applicability" in report
        assert "long-term" in report
