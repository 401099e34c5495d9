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


def test_transport_order_study_fits_order_four(capsys):
    runpy.run_path(str(SCRIPTS / "transport_order_study.py"), run_name="__main__")
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("fitted order: ")
    assert abs(float(last.split(": ")[1]) - 4) < 0.05


def test_dirac_dispersion_demo_measures_the_lattice_energy(capsys):
    runpy.run_path(str(SCRIPTS / "dirac_dispersion_demo.py"), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["k", "E_measured", "E_lattice", "E_continuum"]
    assert len(rows) == 4
    for row in rows:
        _, measured, lattice, _ = row.split()
        assert measured == lattice, row


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


def canned_run(wall_s, failed=0):
    """The tail of one `perfbench/run.py --trace 0` output."""
    env = {"cpu": "Test CPU", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "seed": 5}
    result = {
        "correct": failed == 0, "attempted": 48, "failed": failed,
        "metrics": {
            "setup_s": {"value": 0.3, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {"value": 36.5, "unit": "MiB"},
        },
    }
    return "\n".join([
        "[ga-products] 3 passes x 24 ops",
        "  wall_s 1.5 s",
        "environment: " + json.dumps(env),
        json.dumps(result),
    ]) + "\n"


def test_bench_summary_of_canned_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    parse, summarize = bench["parse_run"], bench["summarize"]
    base = [parse(canned_run(w)) for w in (1.4, 1.6, 1.5, 1.8, 1.5)]
    change = [parse(canned_run(w)) for w in (0.15, 0.14, 1.9, 0.13, 0.14)]
    assert base[0]["environment"] == {"cpu": "Test CPU", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    summary = summarize(list(zip(base, change)), bench["end_to_end_directions"](bench["benchmark_spec"]()))
    assert summary["pairs"] == 5
    assert set(summary["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}
    wall = summary["metrics"]["wall_s"]
    assert wall["change_wins"] == 4
    assert wall["base"] == {"median": 1.5, "q1": 1.5, "q3": 1.6}
    assert wall["change"]["median"] == 0.14
    # equal values are no win
    assert summary["metrics"]["setup_s"]["change_wins"] == 0
    assert summary["failed"] == {"base": 0, "change": 0}
    one = summarize([(base[0], parse(canned_run(0.2, failed=1)))], {"wall_s": "lower"})
    assert one["metrics"]["wall_s"]["base"] == {"median": 1.4, "q1": 1.4, "q3": 1.4}
    assert one["failed"] == {"base": 0, "change": 1}
    # per-op rows: each side's median over the pairs of each op's latency
    for run, op_s in zip(base + change, [[0.5, 0.01], [0.7, 0.03], [0.6, 0.02], [0.9, 0.02], [0.6, 0.02],
                                          [0.2, 0.02], [0.3, 0.01], [0.1, 0.02], [0.2, 0.02], [0.2, 0.05]]):
        run["op_s"] = op_s
    rows = bench["op_rows"](list(zip(base, change)), ["dirac --grid 256", "ga n=4 diagonal sparse exact"])
    assert rows == [
        {"op": "dirac --grid 256", "base_s": 0.6, "change_s": 0.2},
        {"op": "ga n=4 diagonal sparse exact", "base_s": 0.02, "change_s": 0.02},
    ]


def test_bench_reads_per_op_latencies_and_labels(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    (tmp_path / ".perfbench").mkdir()
    result = {"pass_latencies_s": [[0.3, 0.02, 0.5], [0.1, 0.04, 0.4], [0.2, 0.03, 0.6]]}
    (tmp_path / ".perfbench" / "results-field-evolution-untraced.json").write_text(json.dumps(result))
    assert bench["op_latencies"](tmp_path, "field-evolution") == [0.2, 0.03, 0.5]
    # labels come from the tree's own plan, in its run order
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    for name, seed in (("field-evolution", 3), ("ga-products", 3)):
        ops = workloads.plan(name, seed)["ops"]
        labels = bench["op_labels"](REPO, name, seed)
        assert len(labels) == len(ops)
        for op, label in zip(ops, labels):
            if op["kind"] == "cli":
                assert label == " ".join(op["argv"])
            else:
                assert label == f"ga n={op['n']} {op['metric']} {op['density']} {op['scalars']}"
