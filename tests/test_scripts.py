"""The helper scripts under scripts/ still run and reproduce their committed outputs."""

import runpy
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def test_make_qubit_scenario_reproduces_the_committed_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(SCRIPTS / "make_qubit_scenario.py"), run_name="__main__")
    for name in ("qubit.json", "qubit_gauged.json"):
        written = (tmp_path / "scenarios" / name).read_bytes()
        assert written == (REPO / "scenarios" / name).read_bytes(), name
    assert "wrote" in capsys.readouterr().out


def test_ideal_survey_runs(capsys):
    runpy.run_path(str(SCRIPTS / "ideal_survey.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    # a header, then one row per Cl(p,q) with 1 <= p+q <= 4
    assert len(lines) == 1 + 2 + 3 + 4 + 5
    assert "Cl(3,1)" in "\n".join(lines)
