"""Unit tests for the overhead decomposition and the report builder."""

import os
import subprocess
import sys

import pytest

import repro
from repro.analysis.decomposition import measure_components, render_report
from repro.analysis.report import build_report


def test_package_import_leaves_decomposition_unloaded():
    """``python -m repro.analysis.decomposition`` runs the module as
    ``__main__``; had ``import repro.analysis`` loaded it already, runpy
    would warn that it is in ``sys.modules``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = "import sys, repro.analysis; print('repro.analysis.decomposition' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestDecomposition:
    @pytest.fixture(scope="class")
    def components(self):
        return measure_components(ops=300)

    def test_all_components_measured(self, components):
        names = {component.name for component in components}
        assert len(names) == 7
        assert any("decide" in name for name in names)
        assert any("netlink" in name for name in names)
        assert any("shm fault" in name for name in names)

    def test_costs_are_positive_and_sane(self, components):
        for component in components:
            assert 0 < component.microseconds_per_op < 10_000

    def test_query_costs_more_than_bare_decision(self, components):
        by_name = {c.name: c.microseconds_per_op for c in components}
        decision = next(v for k, v in by_name.items() if k.startswith("decision"))
        query = next(v for k, v in by_name.items() if k.startswith("netlink"))
        assert query > decision  # the round trip wraps the decision

    def test_render(self, components):
        text = render_report(ops=200)
        assert "decomposition" in text
        assert "us/op" in text


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
