"""tools/report_diff.py: one summary line for two reports' check records."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("report_diff", os.path.join(ROOT, "tools", "report_diff.py"))
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

CHECKS = [
    {"name": "plancherel", "lhs": 4.011537304173011, "rhs": 4.033884816088783, "passed": True},
    {"name": "hausdorff-young", "lhs": 0.8635617267609111, "rhs": 0.9, "passed": True},
    {"name": "schatten-suite", "lhs": 7.315408664794016e-16, "rhs": 1e-10, "passed": True},
    {"name": "semi-invariance", "lhs": "nan", "rhs": 1e-10, "passed": False},
]


def write_report(path, checks):
    lines = ["HYWREPORT 1", "# generated at some time", json.dumps({"record": "config", "seed": 0})]
    lines += [json.dumps({"record": "check", **c}) for c in checks]
    lines.append(json.dumps({"record": "summary", "checks": len(checks)}))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(tmp_path, capsys, after):
    before = write_report(tmp_path / "before.jsonl", CHECKS)
    code = report_diff.main([before, write_report(tmp_path / "after.jsonl", after)])
    return code, capsys.readouterr().out.strip()


def test_identical_reports(tmp_path, capsys):
    assert run(tmp_path, capsys, CHECKS) == (
        0,
        "4 checks, 0 verdict changes, 0 values changed, worst relative change 0 (none)",
    )


def test_a_drift_at_roundoff(tmp_path, capsys):
    after = [dict(c) for c in CHECKS]
    after[1]["rhs"] = 0.9 * (1 + 1e-15)
    after[0]["lhs"] = 4.011537304173012
    assert run(tmp_path, capsys, after) == (
        0,
        "4 checks, 0 verdict changes, 2 values changed, worst relative change 1.11e-15 (hausdorff-young rhs)",
    )


def test_a_flipped_verdict_and_a_count_mismatch_exit_1(tmp_path, capsys):
    after = [dict(c) for c in CHECKS]
    after[2].update(lhs=2e-10, passed=False)
    assert run(tmp_path, capsys, after) == (
        1,
        "4 checks, 1 verdict changes, 1 values changed, worst relative change 2.73e+05 (schatten-suite lhs)",
    )
    code, line = run(tmp_path, capsys, CHECKS[:3])
    assert code == 1 and line.startswith("4 against 3 checks, 0 verdict changes")


def test_a_value_that_leaves_nan_changes_infinitely(tmp_path, capsys):
    after = [dict(c) for c in CHECKS]
    after[3]["lhs"] = 1e-12
    assert run(tmp_path, capsys, after)[1].endswith("worst relative change inf (semi-invariance lhs)")
