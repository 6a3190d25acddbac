"""The EXPERIMENTS.md generator and repository documentation health."""

import io
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report_text():
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        from generate_experiments_md import write_report
    finally:
        sys.path.pop(0)
    buffer = io.StringIO()
    write_report(buffer)
    return buffer.getvalue()


def test_report_covers_every_experiment(report_text):
    for experiment_id in ("E-T1", "E-T2", "E-F1", "E-F2", "E-F3",
                          "E-F4", "E-F5", "E-C1", "E-C2", "E-C3",
                          "E-C4", "E-C5", "E-C6", "E-C7", "E-V1",
                          "E-X1", "E-X2", "E-X3",
                          "E-ET1", "E-ET2", "E-ET3", "E-ET4"):
        assert experiment_id in report_text, experiment_id


def test_report_contains_table2_markdown(report_text):
    assert "| 35 |" in report_text
    assert "Vth paper" in report_text


def test_committed_experiments_md_up_to_date_structure():
    committed = (REPO / "EXPERIMENTS.md").read_text()
    # Values drift with calibration, but the committed file must carry
    # the full experiment structure.
    for heading in ("## E-T2", "## E-F5", "## E-X1", "## E-ET1"):
        assert heading in committed


def test_design_md_lists_every_subpackage():
    design = (REPO / "DESIGN.md").read_text()
    for subpackage in ("itrs/", "devices/", "circuits/",
                       "interconnect/", "thermal/", "power/",
                       "netlist/", "optim/", "pdn/", "analysis/"):
        assert subpackage in design, subpackage


def test_readme_references_real_paths():
    readme = (REPO / "README.md").read_text()
    for token in ("examples/quickstart.py", "DESIGN.md",
                  "EXPERIMENTS.md", "python -m pytest tests/"):
        assert token in readme, token
    # Every example the README advertises exists.
    for line in readme.splitlines():
        if "examples/" in line and ".py" in line:
            start = line.index("examples/")
            end = line.index(".py", start) + 3
            path = REPO / line[start:end]
            assert path.exists(), path
