"""Smoke tests: every script in demos/ runs to completion and prints."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "dsbs_region_tour.py", "gaussian_common_info.py", "synthesis_trend.py"
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
