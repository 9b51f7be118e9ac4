"""Golden span trees: the traced scenarios render exactly as committed.

`TestTraceConsistency` compares two runs of one build, so it cannot see a
change to the code that emits the spans.  These renders were recorded once
and are compared byte for byte: the quickstart's span tree and decision
report, and the span tree of each paper figure run on a traced protected
machine.  A change that moves, drops, renames or re-attributes a span
fails here.

Regenerate (only when a span change is intended) with::

    PYTHONPATH=src python -m tests.integration.test_golden_traces --write
"""

import pathlib
import sys

import pytest

from repro.core import Machine
from repro.obs import render_decision_report, run_traced_quickstart
from repro.workloads import scenarios
from repro.xserver import window

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden_traces")

_FIGURES = {
    "figure1": scenarios.figure1_hardware_device,
    "figure2": scenarios.figure2_clipboard_paste,
    "figure3": scenarios.figure3_launcher_spawn,
    "figure4": scenarios.figure4_browser_ipc,
    "figure6": scenarios.figure6_selection_protocol,
}

NAMES = ["quickstart.tree", "quickstart.report"] + [f"{f}.tree" for f in _FIGURES]


def render(name: str) -> str:
    """The current render of golden file *name*."""
    stem, kind = name.split(".")
    if stem == "quickstart":
        with run_traced_quickstart() as machine:
            if kind == "report":
                return render_decision_report(machine) + "\n"
            return machine.tracer.render_tree() + "\n"
    with Machine.with_overhaul(trace=True) as machine:
        _FIGURES[stem](machine)
        return machine.tracer.render_tree() + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_render_matches_golden(name):
    assert render(name) == (GOLDEN_DIR / name).read_text()


def test_drawable_ids_render_as_aliases():
    """``screen.gate`` names its drawable by a first-seen alias.

    Drawable ids come from a process-global counter, so a process that
    has already allocated drawables must still render figure 3 exactly as
    a fresh one does.
    """
    fresh = render("figure3.tree")
    for _ in range(3):
        window.Drawable(owner_client_id=0)
    assert render("figure3.tree") == fresh == (GOLDEN_DIR / "figure3.tree").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.integration.test_golden_traces --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden in NAMES:
        (GOLDEN_DIR / golden).write_text(render(golden))
