"""The helper scripts under scripts/ still run and reproduce their committed outputs."""

import json
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


def write_report(run_dir, details, wall_time_s, relation="f f = f"):
    run_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "checks": [
            {"name": "idempotent-search", "status": "pass", "relation": relation,
             "details": details},
            {"name": "minimal-ideal", "status": "pass", "residual": 0.0},
        ],
        "matrices": {"gamma_1": [1.0, 0.0, 0.0, -1.0]},
        "wall_time_s": wall_time_s,
    }
    (run_dir / "spinor_rep_report.json").write_text(json.dumps(report))


def test_report_diff_names_every_field_that_differs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    field_diffs = runpy.run_path(str(SCRIPTS / "report_diff.py"))["field_diffs"]
    a, b = tmp_path / "a", tmp_path / "b"
    write_report(a, "idempotent (1 + e1)/2, (1 + e124)/2", 0.5)
    write_report(b, "idempotent (1 + e1)/2", 0.7)
    # wall_time_s differs too, and is ignored
    assert field_diffs(a, b) == ["spinor_rep_report.json:/checks/idempotent-search/details"]
    write_report(b, "idempotent (1 + e1)/2, (1 + e124)/2", 0.7, relation="f = f")
    (b / "extra_report.json").write_text("{}")
    assert field_diffs(a, b) == [
        "extra_report.json: written on one side only",
        "spinor_rep_report.json:/checks/idempotent-search/relation",
    ]
    assert field_diffs(a, a) == []
