"""End-to-end checks for the batch entry point and its report contract."""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import stat
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hywbench import verify
from hywbench.cli import (
    CHECK_FAMILIES,
    MAX_EXTENT,
    MAX_FIXTURE_BYTES,
    ConfigError,
    RunConfig,
    build_config,
    _build_parser,
    _summary,
    _write_atomic,
    explain,
    main,
    run_suite,
    write_fixture_files,
)
from hywbench.grids import Grid1D, modular_on_grid
from hywbench.groups import make_group


def parse_report(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "HYWREPORT 1"
    body = [ln for ln in lines if not ln.startswith("#")]
    records = [json.loads(ln) for ln in body[1:]]
    return lines, body, records


def run_main(args):
    return main(["run", "--quiet"] + args)


# -- configuration -----------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(group="so3").validate()
    with pytest.raises(ConfigError):
        RunConfig(p=(3.0,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(p=(1.0,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(grid_n=100).validate()
    with pytest.raises(ConfigError):
        RunConfig(checks=("plancherel", "astrology")).validate()
    with pytest.raises(ConfigError):
        RunConfig(constants="lucky").validate()
    with pytest.raises(ConfigError):
        RunConfig(tolerances={"vibes": 1.0}).validate()
    with pytest.raises(ConfigError):
        RunConfig(out="").validate()  # not a path: would write beside the working directory
    assert RunConfig().validate().group == "axb"


def test_selected_families_skips_nilpotent_on_axb():
    fams = RunConfig(group="axb").validate().checks
    assert "nilpotent-bound" not in fams
    assert len(fams) >= 6
    fams_h = RunConfig(group="heisenberg").validate().checks
    assert "nilpotent-bound" in fams_h


def test_a_family_runs_on_the_groups_its_row_names(monkeypatch):
    import hywbench.cli as cli

    with pytest.raises(ConfigError, match="^nilpotent-bound is specific to heisenberg, not axb$"):
        RunConfig(group="axb", checks=("nilpotent-bound",)).validate()
    row = cli.FAMILY_TABLE["minkowski"]
    monkeypatch.setitem(cli.FAMILY_TABLE, "minkowski", row._replace(groups=("heisenberg",)))
    with pytest.raises(ConfigError, match="^minkowski is specific to heisenberg, not axb$"):
        RunConfig(group="axb", checks=("minkowski",)).validate()
    fams = RunConfig(group="axb").validate().checks
    assert "minkowski" not in fams and "russo-fournier" in fams
    assert "minkowski" in RunConfig(group="heisenberg").validate().checks


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"group": "axb", "p": [1.8], "seed": 9, "checks": "plancherel"}))
    parser = _build_parser()
    args = parser.parse_args(["run", "--config", str(cfg_file), "--p", "1.2"])
    cfg = build_config(args)
    assert cfg.group == "axb" and cfg.seed == 9
    assert cfg.checks == ("plancherel",)  # a single name, not its letters
    assert cfg.p == (1.2,)  # flag wins over the file


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"grop": "axb"}))
    parser = _build_parser()
    args = parser.parse_args(["run", "--config", str(cfg_file)])
    with pytest.raises(ConfigError):
        build_config(args)


def test_grid_override_applies():
    cfg = RunConfig(group="axb", grid_n=64, grid_h=32).validate()
    n_grids, h_grid = cfg.grids()
    assert n_grids[0].n == 64 and h_grid.n == 32


# -- report contract ----------------------------------------------------------------


def test_report_structure_and_summary_consistency(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = run_main(["--group", "axb", "--seed", "1", "--checks",
                   "plancherel,dual-measure-scaling", "--out", str(out)])
    assert rc == 0
    lines, body, records = parse_report(out)
    kinds = [r["record"] for r in records]
    assert kinds[0] == "config" and kinds[1] == "model" and kinds[-1] == "summary"
    checks = [r for r in records if r["record"] == "check"]
    summary = records[-1]
    assert summary["checks"] == len(checks) == 110
    assert summary["passed"] == sum(r["passed"] for r in checks)
    assert summary["failed"] == 0
    # canonical family order follows the registry
    fams = [r["family"] for r in checks]
    order = [f for f in CHECK_FAMILIES if f in fams]
    assert fams == sorted(fams, key=order.index)
    # comment lines carry the timestamp and prose footer
    assert any(ln.startswith("# generated") for ln in lines)


def test_run_prints_one_line_per_check_then_the_summary(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert main(["run", "--group", "axb", "--checks", "dual-measure-scaling,hausdorff-young",
                 "--out", str(out)]) == 0
    _, _, records = parse_report(out)
    checks = [r for r in records if r["record"] == "check"]
    summary = records[-1]
    fields = [f.name for f in dataclasses.fields(verify.CheckResult)]
    expected = [str(verify.CheckResult(**{f: r[f] for f in fields})) for r in checks]
    expected.append(f"{summary['checks']} checks: {summary['passed']} passed, 0 failed -> {out}")
    assert capsys.readouterr().out.splitlines() == expected and len(checks) == 106


@pytest.mark.parametrize(
    "kind, rhs, worst",
    [("inequality", 1.0, "worst_inequality"), ("deviation", 0.0, "worst_equality")],
)
def test_summary_counts_nan_as_the_worst_in_any_order(kind, rhs, worst):
    nan, five = (
        {"name": name, "family": "f", "kind": kind, "lhs": lhs, "rhs": rhs, "passed": False}
        for name, lhs in (("nan", float("nan")), ("five", 5.0))
    )
    for records in ([nan, five], [five, nan]):
        assert _summary(records)[worst]["name"] == "nan", [r["name"] for r in records]


@pytest.mark.parametrize(
    "config",
    [
        {"group": "axb", "checks": ["gaussian-extremality"], "n_extents": [[1000, 1016]]},
        {"group": "axb", "checks": ["plancherel", "hausdorff-young"], "n_extents": [[50, 60]]},
    ],
)
def test_summary_names_a_failed_inequality_without_a_ratio(tmp_path, config):
    # every fixture samples to zero: the failed inequalities have rhs NaN
    # (no slice kept) or lhs = rhs = 0 (no transform mass), and no ratio
    cfg_file = tmp_path / "far.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "far.jsonl"
    assert run_main(["--config", str(cfg_file), "--out", str(out)]) == 1
    _, _, records = parse_report(out)
    failed = [r for r in records if r["record"] == "check" and r["kind"] == "inequality"
              and not r["passed"]]
    assert failed and all(r["rhs"] == "nan" or r["rhs"] <= 0 for r in failed)
    worst = records[-1]["worst_inequality"]
    assert worst["ratio"] == "nan" and worst["family"] in config["checks"]


def test_summary_leaves_out_a_passed_inequality_without_a_ratio():
    zero = {"name": "zero", "family": "f", "kind": "inequality", "lhs": 0.0, "rhs": 0.0}
    assert _summary([{**zero, "passed": True}])["worst_inequality"] is None
    assert np.isnan(_summary([{**zero, "passed": False}])["worst_inequality"]["ratio"])


def test_report_byte_identity_same_config(tmp_path):
    args = ["--group", "axb", "--seed", "4", "--checks", "semi-invariance,minkowski"]
    out1, out2 = (tmp_path / n for n in ("a.jsonl", "b.jsonl"))
    assert run_main(args + ["--out", str(out1)]) == 0
    assert run_main(args + ["--out", str(out2)]) == 0
    assert parse_report(out1)[1] == parse_report(out2)[1]


def test_report_differs_across_seeds(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.jsonl"
        run_main(["--group", "axb", "--seed", seed, "--checks", "russo-fournier",
                  "--out", str(out)])
        outs.append(parse_report(out)[1])
    assert outs[0] != outs[1]


def test_model_record_fields(tmp_path):
    for group, dim_N, unimodular in (("axb", 1, False), ("heisenberg", 2, True)):
        out = tmp_path / f"{group}.jsonl"
        run_main(["--group", group, "--seed", "0", "--checks", "dual-measure-scaling",
                  "--out", str(out)])
        model = [r for r in parse_report(out)[2] if r["record"] == "model"][0]
        # unimodular reads the modular function on the run's H grid
        delta = modular_on_grid(make_group(group)[0], Grid1D(*model["h_grid"]))
        assert model["dim_N"] == dim_N and model["unimodular"] is unimodular
        assert unimodular is bool(np.all(delta == 1.0))
        assert len(model["n_grids"]) == dim_N
        assert ("dual_sampling" in model) is (group == "heisenberg")


# -- exit codes ---------------------------------------------------------------------


def test_exit_zero_all_pass(tmp_path):
    out = tmp_path / "ok.jsonl"
    assert run_main(["--group", "axb", "--seed", "2", "--checks", "schatten-suite",
                     "--out", str(out)]) == 0


def test_exit_one_on_failure_report_still_written(tmp_path):
    cfg_file = tmp_path / "strict.json"
    cfg_file.write_text(json.dumps({"tolerances": {"equality": 1e-9}}))
    out = tmp_path / "fail.jsonl"
    rc = run_main(["--group", "axb", "--seed", "2", "--checks", "plancherel",
                   "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    _, _, records = parse_report(out)
    assert records[-1]["failed"] > 0


def test_exit_two_on_bad_config(tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    assert run_main(["--group", "axb", "--p", "3.0", "--seed", "1",
                     "--out", str(out)]) == 2
    assert not out.exists()  # rejected before any computation
    assert "configuration error" in capsys.readouterr().err


def test_repeated_exponent_exits_two(tmp_path, capsys):
    # each exponent once: a repeat would write every check of its families twice
    out = tmp_path / "never.jsonl"
    args = ["--group", "axb", "--p", "1.5,1.5", "--checks", "hausdorff-young", "--out", str(out)]
    assert run_main(args) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert one_line(err, "configuration error: ") and "p=1.5 repeated" in err


def test_empty_selection_is_exit_zero(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert run_main(["--group", "axb", "--seed", "1", "--checks", "",
                     "--out", str(out)]) == 0
    _, _, records = parse_report(out)
    summary = records[-1]
    assert summary["checks"] == 0 and summary["passed"] == 0


def test_exponent_near_one_fails_closed_with_a_parseable_report(tmp_path, capsys):
    out = tmp_path / "near-one.jsonl"
    rc = run_main(["--group", "axb", "--p", "1.001", "--checks", "hausdorff-young,proof-chain",
                   "--out", str(out)])
    assert rc == 1 and "Traceback" not in capsys.readouterr().err
    _, _, records = parse_report(out)
    checks = [r for r in records if r["record"] == "check"]
    overflowed = [r for r in checks if "inf" in (r["lhs"], r["rhs"])]
    assert {r["family"] for r in overflowed} == {"hausdorff-young", "proof-chain"}
    assert not any(r["passed"] for r in overflowed)
    for r in checks:  # every number is finite or one of the three strings
        assert all(isinstance(r[k], float) or r[k] in ("inf", "-inf", "nan") for k in ("lhs", "rhs"))
    assert records[-1]["failed"] >= len(overflowed)
    # the summary too: the chain's inf/inf links give a NaN ratio, the worst in any order
    assert records[-1]["worst_inequality"]["ratio"] == "nan"


@pytest.mark.parametrize("family, failed", [("gaussian-extremality", 1), ("proof-chain", 24)])
def test_all_negligible_slices_fail_closed_with_a_parseable_report(tmp_path, capsys, family, failed):
    # on N extent [50, 60] every fixture samples to zero, so no slice is kept;
    # the chain's links, all at lhs 0, fail for want of transform mass
    cfg_file = tmp_path / "far.json"
    cfg_file.write_text(json.dumps({"group": "axb", "n_extents": [[50, 60]], "checks": [family]}))
    out = tmp_path / "far.jsonl"
    assert run_main(["--config", str(cfg_file), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    _, _, records = parse_report(out)
    failures = [r for r in records if r["record"] == "check" and not r["passed"]]
    assert len(failures) == records[-1]["failed"] == failed
    for r in failures:
        if r["name"] in ("gaussian-extremality", "proof-chain:slice-bound"):
            assert r["detail"].split()[-2:] == ["0", "slices"] and "nan" in (r["lhs"], r["rhs"])
        else:
            assert r["detail"].endswith("no transform mass, lhs = 0") and r["lhs"] == 0.0


@pytest.mark.parametrize(
    "config, failed",
    [
        ({"group": "axb", "n_extents": [[50, 60]], "checks": ["plancherel", "hausdorff-young"]}, 16),
        ({"group": "heisenberg", "n_extents": [[50, 60], [-6, 6]], "checks": ["nilpotent-bound"]}, 5),
    ],
)
def test_no_transform_mass_fails_closed(tmp_path, capsys, config, failed):
    # far from the origin every fixture samples to (next to) zero: a transform
    # side of exactly 0 would meet every bound and identity vacuously
    cfg_file = tmp_path / "far.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "far.jsonl"
    assert run_main(["--config", str(cfg_file), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    _, _, records = parse_report(out)
    checks = [r for r in records if r["record"] == "check"]
    assert len(checks) == records[-1]["failed"] == failed
    for r in checks:
        assert r["lhs"] == 0.0 and r["detail"].endswith("no transform mass, lhs = 0")


def one_line(err, prefix):
    return err.startswith(prefix) and err.count("\n") == 1


def test_out_directory_is_rejected_before_any_check(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(CHECK_FAMILIES, "minkowski", lambda cfg, _: ran.append(cfg) or [])
    out = tmp_path / "reports"
    out.mkdir()
    assert run_main(["--group", "axb", "--checks", "minkowski", "--out", str(out)]) == 2
    assert one_line(capsys.readouterr().err, "configuration error: ")
    assert not ran  # no family ran
    assert os.listdir(tmp_path) == ["reports"] and os.listdir(out) == []


def test_an_out_that_is_not_a_regular_file_is_rejected_before_any_check(
    tmp_path, capsys, monkeypatch
):
    ran = []
    monkeypatch.setitem(CHECK_FAMILIES, "minkowski", lambda cfg, _: ran.append(cfg) or [])
    fifo = tmp_path / "f"
    os.mkfifo(fifo)  # the rename would make it a regular file
    assert run_main(["--group", "axb", "--checks", "minkowski", "--out", str(fifo)]) == 2
    assert one_line(capsys.readouterr().err, "configuration error: ")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    cfg_file = tmp_path / "nul.json"  # open() raises ValueError on a NUL byte
    cfg_file.write_text(json.dumps({"group": "axb", "checks": ["minkowski"], "out": "r\0.jsonl"}))
    monkeypatch.chdir(tmp_path)
    assert run_main(["--config", str(cfg_file)]) == 2
    assert one_line(capsys.readouterr().err, "configuration error: ")
    assert not ran  # no family ran
    assert sorted(os.listdir(tmp_path)) == ["f", "nul.json"]


def test_a_report_name_of_255_bytes_is_written(tmp_path, capsys):
    name = "r" * 249 + ".jsonl"
    assert len(name) == 255
    assert run_main(["--group", "axb", "--checks", "", "--out", str(tmp_path / name)]) == 0
    assert os.listdir(tmp_path) == [name]  # and no temp file left beside it
    assert parse_report(tmp_path / name)[0][0] == "HYWREPORT 1"


def test_unwritable_report_path_exits_two(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(CHECK_FAMILIES, "minkowski", lambda cfg, _: ran.append(cfg) or [])
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "report.jsonl", blocker / "sub" / "report.jsonl"):
        assert run_main(["--group", "axb", "--checks", "minkowski", "--out", str(out)]) == 2
        assert one_line(capsys.readouterr().err, "configuration error: ")
    assert not ran  # rejected before any family ran
    assert os.listdir(tmp_path) == ["file"]


def test_a_symlinked_report_is_written_to_its_target(tmp_path, capsys):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("")
    link.symlink_to(target)
    assert run_main(["--group", "axb", "--checks", "", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert parse_report(target)[0][0] == "HYWREPORT 1"
    assert sorted(os.listdir(tmp_path)) == ["link", "target"]  # no temp file left


def test_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        _write_atomic(str(target), "body\n")  # a file cannot replace a directory
    assert os.listdir(tmp_path) == ["taken"]


def test_fixtures_out_existing_file_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["fixtures", "--group", "axb", "--out", str(blocker)]) == 2
    assert one_line(capsys.readouterr().err, "cannot write output: ")


def test_fixtures_negative_seed_exits_two_before_writing(tmp_path, capsys):
    out = tmp_path / "fixtures"
    assert main(["fixtures", "--group", "axb", "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert one_line(err, "configuration error: ") and "seed=-1" in err
    assert not out.exists()


# extents of the wrong shape or type: the message names the field and its form
MALFORMED_EXTENTS = [
    {"h_extent": [1]},
    {"h_extent": "ab"},
    {"h_extent": [-1, "x"]},
    {"n_extents": [[1]]},
]

# well-formed extents that still make no grid: the message names the field
# and says what is wrong with it
NAMED_GRID_ERRORS = {
    '{"h_extent": [1, 2]}': "h_extent [1, 2]: grid does not contain the origin as a point",
    '{"h_extent": [2, 1]}': "h_extent [2, 1]: need finite extents with hi > lo",
    '{"n_extents": [[1, -1]]}': "n_extents[0] [1, -1]: need finite extents with hi > lo",
}

# numbers of the right type that still make no run: an extent whose width
# overflows a float, H extents on which the ax+b modular function 1/exp(t)
# overflows or divides by an underflowed 0, a boolean tolerance, and a
# repeated exponent
NAMED_VALUE_ERRORS = {
    '{"h_extent": [-1e+308, 1e+308]}': "h_extent [-1e+308, 1e+308]: need finite extents",
    '{"n_extents": [[-1e+308, 1e+308]]}': "n_extents[0] [-1e+308, 1e+308]: need finite extents",
    '{"h_extent": [-740, 740]}': "h_extent [-740, 740]: modular function not finite",
    '{"h_extent": [-745.5, 745.5]}': "h_extent [-745.5, 745.5]: modular function not finite",
    '{"tolerances": {"bound": true}}': "tolerance bound=True",
    '{"p": [1.5, 1.5]}': "exponent p=1.5 repeated",
}


@pytest.mark.parametrize(
    "config",
    [
        {"grid_n": 64.0},
        {"p": ["x"]},
        {"seed": "a"},
        {"h_extent": [1, 2]},  # the quotient grid must hold the origin
        {"n_extents": [[-1, 1], [-1, 1]]},  # axb has one normal-subgroup axis
        {"tolerances": {"bound": -1}},
        *MALFORMED_EXTENTS,
        *map(json.loads, NAMED_GRID_ERRORS),
        {"checks": ["nilpotent-bound"]},  # the bound is specific to heisenberg
        *map(json.loads, NAMED_VALUE_ERRORS),
        # integers beyond the float range
        {"grid_n": 2**1100},
        {"grid_h": 2**1100},
        {"p": [10**400]},
        {"tolerances": {"bound": 10**400}},
        {"p": []},
        {"tolerances": [1]},
        {"tolerances": None},
    ],
)
def test_config_file_errors_exit_two(tmp_path, capsys, config):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"group": "axb", "checks": ["minkowski"], **config}))
    out = tmp_path / "never.jsonl"
    assert run_main(["--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    if config in MALFORMED_EXTENTS:
        (field,) = config
        assert f"{field} must be" in err and "[lo, hi]" in err
    if json.dumps(config) in NAMED_GRID_ERRORS:
        assert NAMED_GRID_ERRORS[json.dumps(config)] in err
    if json.dumps(config) in NAMED_VALUE_ERRORS:
        assert NAMED_VALUE_ERRORS[json.dumps(config)] in err


@pytest.mark.parametrize(
    "data",
    [
        b'{"p": 1.5',  # not JSON
        b'[1.5]',  # JSON, but not an object
        b'{"p": "\xff"}',  # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
        b'{"seed": ' + b"1" * 5001 + b"}",  # past the digit limit of int conversion
    ],
    ids=["not-json", "not-an-object", "not-utf-8", "too-deep", "too-many-digits"],
)
def test_a_config_file_that_is_not_a_json_object_exits_two(tmp_path, capsys, data):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_bytes(data)
    out = tmp_path / "never.jsonl"
    assert run_main(["--config", str(cfg_file), "--out", str(out)]) == 2
    assert one_line(capsys.readouterr().err, "configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--group", "foo"],
        ["run", "--grid-n", "x"],
        ["run", "--bogus"],
        [],
        ["fixtures", "--group", "axb"],  # no --out
        ["run", "--p", "1.5,"],  # a trailing comma is an empty exponent, not none
        ["run", "--group", "axb", "--grid-n", str(2**1100)],  # beyond the float range
        ["run", "--group", "axb", "--grid-h", str(2**1100)],
    ],
)
def test_usage_errors_exit_two_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert one_line(capsys.readouterr().err, "configuration error: ")
    assert os.listdir(tmp_path) == []  # no report, no fixture directory


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0 and "--grid-n" in capsys.readouterr().out


def test_fixture_size_is_capped_in_validate():
    # 512^2 x 256 Heisenberg points are exactly the cap; nothing is sampled to tell
    assert RunConfig(group="heisenberg", grid_n=512, grid_h=256).validate().grid_n == 512
    for cfg in (
        RunConfig(group="heisenberg", grid_n=65536),  # 8.8e12 bytes
        RunConfig(group="heisenberg", grid_n=512, grid_h=512),
        RunConfig(group="axb", grid_n=2**20, grid_h=2**20),
    ):
        with pytest.raises(ConfigError, match=f"over the {MAX_FIXTURE_BYTES}-byte cap"):
            cfg.validate()


def test_grid_extents_and_bands_are_capped_in_validate():
    # beyond the cap cell weights overflow: a Heisenberg H spacing of 4e306 made
    # a non-finite kernel, N extents of 1e-300 a reciprocal cell weight of inf
    assert RunConfig(group="heisenberg", h_extent=(-MAX_EXTENT, MAX_EXTENT), grid_h=4).validate()
    for extents in ({"h_extent": (-8e306, 8e306)}, {"n_extents": ((-1e-300, 1e-300), (-6, 6))}):
        with pytest.raises(ConfigError, match="grids or their bands reach"):
            RunConfig(group="heisenberg", grid_n=4, grid_h=4, **extents).validate()


SAMPLED_FAMILIES = ["plancherel", "hausdorff-young", "proof-chain", "gaussian-extremality",
                    "nilpotent-bound"]
JUNK = st.sampled_from([None, 0, -4, 3, 6, 8.0, "8", True, [4], 2**1100])
EXTENT = st.lists(st.floats(width=64), min_size=2, max_size=2)


def mostly(valid):
    """valid three times in four, else a value of the wrong type or range."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else JUNK)


@settings(max_examples=25, deadline=None)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "group": mostly(st.sampled_from(["axb", "heisenberg"])),
            "grid_n": mostly(st.sampled_from([4, 8])),
            "grid_h": mostly(st.sampled_from([4, 8])),
            "checks": st.lists(st.sampled_from(SAMPLED_FAMILIES), min_size=1, max_size=3),
            "p": mostly(st.lists(st.floats(1.0, 2.0, exclude_min=True), max_size=2)),
            "constants": mostly(st.sampled_from(["sharp", "classical"])),
            "tolerances": mostly(
                st.dictionaries(
                    st.sampled_from(sorted(verify.TOLERANCES)), st.floats(0.0, 1.0) | JUNK
                )
            ),
            "seed": mostly(st.integers(0, 3)),
            "n_extents": mostly(st.lists(EXTENT, min_size=1, max_size=2)),
            "h_extent": (st.sampled_from([1000.0, 745.5, 740.0, 709.7]) | st.floats(0.0, 1e308))
            .map(lambda a: [-a, a])
            | EXTENT
            | JUNK,
        },
    )
)
@example({"group": "axb", "grid_n": 8, "grid_h": 8, "h_extent": [-740, 740]})
@example({"group": "axb", "grid_n": 8, "grid_h": 8, "h_extent": [-745.5, 745.5]})
@example({"group": "axb", "grid_n": 8, "grid_h": 8, "h_extent": [-709.7, 709.7]})  # exit 1
def test_any_config_ends_in_a_verdict_or_one_line(tmp_path_factory, config):
    """Exit 0 or 1 with a report, or 2 with one stderr line and none; never a
    traceback (a package RuntimeWarning is an error under pytest).  The
    examples are ax+b H grids where 1/exp(t) overflows, divides by an
    underflowed 0, and stays finite while products of it overflow."""
    grid = {"grid_n": 4, "grid_h": 4, "checks": SAMPLED_FAMILIES[1:3]}  # tiny unless drawn
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "cfg.json").write_text(json.dumps({**grid, **config}))
    out, err = directory / "r.jsonl", io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run_main(["--config", str(directory / "cfg.json"), "--out", str(out)])
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().count("\n") == 1 and not out.exists()
    else:
        assert out.exists()


# -- explain ------------------------------------------------------------------------


# the verify check behind each family, and the default slack its docstring
# must state in the opening paragraph
EXPLAINED = {
    "schatten-suite": (verify.schatten_property_suite, "1e-10"),
    "russo-fournier": (verify.russo_fournier_random_suite, "1e-10"),
    "minkowski": (verify.minkowski_random_suite, "1e-10"),
    "dual-measure-scaling": (verify.check_dual_measure_scaling, "1e-12"),
    "semi-invariance": (verify.check_semi_invariance, "1e-10"),
    "plancherel": (verify.check_plancherel, "1e-2"),
    "hausdorff-young": (verify.hausdorff_young_margins, "1e-6"),
    "proof-chain": (verify.check_proof_chain, "1e-10"),
    "gaussian-extremality": (verify.check_gaussian_extremality, "0.99"),
    "nilpotent-bound": (verify.check_nilpotent_bound, "1e-6"),
}


def test_explain_covers_every_family():
    assert set(EXPLAINED) == set(CHECK_FAMILIES)
    for name in CHECK_FAMILIES:
        text = explain(name)
        assert len(text) > 40
        check, slack = EXPLAINED[name]
        assert text == inspect.getdoc(check)
        assert slack in text.split("\n\n")[0], name


def test_explain_unknown_name(capsys):
    with pytest.raises(ConfigError):
        explain("nonsense")
    for name in ("", "nonsense", "Plancherel"):  # one stderr line, as every exit-2 error
        assert main(["explain", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: unknown check {name!r}; valid names: ")
        assert err.count("\n") == 1


def test_explain_main_prints(capsys):
    assert main(["explain", "minkowski"]) == 0
    out = capsys.readouterr().out
    assert "Minkowski" in out and "q/p" in out


# -- fixtures -----------------------------------------------------------------------


def test_fixture_files_match_manifest(tmp_path):
    manifest = write_fixture_files("axb", str(tmp_path), seed=0)
    lines = open(manifest).read().splitlines()
    assert len(lines) == 10
    for line in lines:
        digest, fname = line.split("  ")
        with open(os.path.join(str(tmp_path), fname), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_fixture_regeneration_is_stable(tmp_path):
    m1 = write_fixture_files("axb", str(tmp_path / "a"), seed=0)
    m2 = write_fixture_files("axb", str(tmp_path / "b"), seed=0)
    assert open(m1).read().split()[::2] == open(m2).read().split()[::2]


def test_fixtures_via_main(tmp_path, capsys):
    assert main(["fixtures", "--group", "axb", "--out", str(tmp_path / "fx")]) == 0
    assert "MANIFEST" in capsys.readouterr().out


# -- suite API ----------------------------------------------------------------------


def test_run_suite_returns_consistent_records():
    cfg = RunConfig(group="axb", seed=7, checks=("gaussian-extremality",)).validate()
    records, summary, text = run_suite(cfg)
    assert len(records) == 1 and summary["checks"] == 1
    assert text.startswith("HYWREPORT 1\n")
    assert records[0]["family"] == "gaussian-extremality"


def test_gaussian_extremality_samples_once_on_the_run_grids(monkeypatch):
    import hywbench.cli as cli

    sampled = []
    sample = cli.sample

    def counted(spec, n_grids, h_grid, model):
        sampled.append(h_grid.n)
        return sample(spec, n_grids, h_grid, model)

    monkeypatch.setattr(cli, "sample", counted)
    cfg = RunConfig(group="axb", grid_h=32, p=(1.2, 1.5), checks=("gaussian-extremality",))
    records, _, _ = run_suite(cfg.validate())
    assert sampled == [32]  # one fixture for both exponents, on the 32-point H grid
    for r in records:
        assert 0 < int(r["detail"].split()[-2]) <= 32  # "<n> slices"


def test_a_family_checking_no_exponent_samples_nothing(monkeypatch):
    import hywbench.cli as cli

    sampled = []
    sample = cli.sample

    def counted(*args):
        sampled.append(args)
        return sample(*args)

    monkeypatch.setattr(cli, "sample", counted)
    cfg = RunConfig(group="heisenberg", p=(2.0,), checks=("gaussian-extremality", "nilpotent-bound"))
    records, _, _ = run_suite(cfg.validate())
    # nilpotent-bound checks only p < 2: the one sample is gaussian-extremality's
    assert [r["family"] for r in records] == ["gaussian-extremality"] and len(sampled) == 1


def test_a_selection_checking_no_exponent_exits_two(tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    args = ["--group", "heisenberg", "--p", "2", "--checks", "nilpotent-bound", "--out", str(out)]
    assert run_main(args) == 2 and not out.exists()
    assert one_line(capsys.readouterr().err, "configuration error: ")


def test_family_wall_times_are_comment_lines():
    cfg = RunConfig(group="axb", seed=3, checks=("minkowski", "dual-measure-scaling")).validate()
    _, _, text = run_suite(cfg)
    _, _, again = run_suite(cfg)
    lines = text.splitlines()
    timed = [ln.split() for ln in lines if ln.startswith("# family ")]
    assert [t[2] for t in timed] == list(cfg.checks)  # one line per family, in order
    for t in timed:
        assert len(t) == 4 and t[3].endswith("s") and float(t[3][:-1]) >= 0.0
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body == [ln for ln in again.splitlines() if not ln.startswith("#")]
    assert body[0] == "HYWREPORT 1"
    assert [json.loads(ln)["record"] for ln in body[1:]] == [
        "config", "model", *["check"] * (len(body) - 4), "summary"
    ]


def count_record_builds(patch):
    """Every spectral record build in the package: the fixture keys in build
    order, and each key's exponents and chain exponents."""
    import hywbench.cli as cli

    builds, plans = [], {}
    build = cli.spectral_record

    def counted(g, dual, ps, sampling, chain):
        builds.append(g.spec.key())
        plans[g.spec.key()] = (set(ps), set(chain))
        return build(g, dual, ps, sampling, chain)

    patch.setattr(cli, "spectral_record", counted)
    return builds, plans


@pytest.fixture(scope="module")
def heisenberg_run():
    """One Heisenberg run of every family at p = 1.2, 1.5: its check records,
    report text and wall time, the fixture keys of its spectral record
    builds and each key's exponents and chain exponents, and the rows of
    every pairing by fixture spec."""
    from hywbench.transform import CharacterSlice

    paired = {}
    pair = CharacterSlice.pair

    def counted(self, omegas):
        paired.setdefault(self.g.spec, []).append(np.atleast_2d(omegas))
        return pair(self, omegas)

    with pytest.MonkeyPatch.context() as patch:
        builds, plans = count_record_builds(patch)
        patch.setattr(CharacterSlice, "pair", counted)
        cfg = RunConfig(group="heisenberg", p=(1.2, 1.5)).validate()
        start = time.perf_counter()
        records, _, text = run_suite(cfg)
        seconds = time.perf_counter() - start
    return SimpleNamespace(
        records=records, text=text, seconds=seconds, builds=builds, plans=plans, paired=paired
    )


def test_nilpotent_bound_reads_the_hausdorff_young_margins(heisenberg_run, monkeypatch):
    records, builds = heisenberg_run.records, heisenberg_run.builds
    ps = (1.2, 1.5)
    hy = [r for r in records if r["family"] == "hausdorff-young"]
    nil = [r for r in records if r["family"] == "nilpotent-bound"]
    assert len(builds) == len(set(builds)) == 10  # one spectral record per fixture
    # p-major: all fixtures at 1.2, then all at 1.5
    assert [r["detail"] for r in hy] == [f"heisenberg p={p:g} sharp" for p in ps for _ in range(6)]
    # nilpotent-bound's 5 fixtures are the first 5 of hausdorff-young's 6
    assert len(nil) == 10
    for i, p in enumerate(ps):
        for j in range(5):
            assert nil[5 * i + j]["detail"] == f"p={p:g}"
            assert nil[5 * i + j]["lhs"] == hy[6 * i + j]["lhs"]

    # the records live for one run: the same run again builds its own
    builds, _ = count_record_builds(monkeypatch)
    cfg = RunConfig(group="heisenberg", p=(1.5,), grid_n=16, grid_h=16, checks=("nilpotent-bound",))
    run_suite(cfg.validate())
    assert len(builds) == 5
    run_suite(cfg.validate())
    assert len(builds) == 10


def test_default_heisenberg_run_pairs_each_fixture_once(heisenberg_run):
    # 10 distinct fixtures across plancherel, hausdorff-young, proof-chain and
    # nilpotent-bound, each paired once, however the orbits are grouped into
    # pair calls: a random fixture at its 64 transversal points x 128 quotient
    # points, a real catalog Gaussian at the 32 points of one lambda sign,
    # whose mirrors at -lambda repeat them
    paired = heisenberg_run.paired
    assert sorted(spec.kind for spec in paired) == ["gaussian"] * 5 + ["random-bandlimited"] * 5
    for spec, calls in paired.items():
        rows = np.concatenate(calls)
        orbits = 32 if spec.kind == "gaussian" else 64
        assert rows.shape == (orbits * 128, 2) and len(np.unique(rows, axis=0)) == orbits * 128
        if spec.kind == "gaussian":  # the trailing frequency is lambda
            assert len(np.unique(np.sign(rows[:, 1]))) == 1


def test_the_family_rows_plan_each_record_of_a_heisenberg_run(heisenberg_run):
    # every record serves plancherel at p = 2 alone; the pools of
    # hausdorff-young (Gaussians 0-1, randoms 0-3) and nilpotent-bound
    # (Gaussians 0-1, randoms 0-2) add the run's p, and those of proof-chain
    # (Gaussians 0-1, random 0) and gaussian-extremality (Gaussian 0) its chain
    gaussians = [spec.key() for spec in verify.gaussian_fixtures("heisenberg", 5)]
    randoms = [spec.key() for spec in verify.random_fixtures("heisenberg", 5)]
    every_p, chain = {1.2, 1.5, 2.0}, {1.2, 1.5}
    assert heisenberg_run.plans == {
        **{key: (every_p, chain) for key in gaussians[:2] + randoms[:1]},
        **{key: (every_p, set()) for key in randoms[1:4]},
        **{key: ({2.0}, set()) for key in gaussians[2:] + randoms[4:]},
    }


@pytest.mark.parametrize(
    "p, checks, calls",  # calls: lp_norm_G, transform_reciprocal, sample
    [
        # 10 records at p = 2, 6 of them also at 1.5; one FFT for each of the
        # 3 proof-chain fixtures, whose catalog Gaussian 0 gaussian-extremality reads
        ((1.5,), ("all",), (16, 3, 25)),
        # one FFT per fixture serves the chain at all three exponents
        ((1.2, 1.5, 1.8), ("proof-chain",), (9, 3, 3)),
        # gaussian-extremality alone reads a chain record of catalog Gaussian 0
        ((1.5,), ("gaussian-extremality",), (1, 1, 1)),
    ],
)
def test_a_run_takes_each_norm_and_fft_once_per_record(monkeypatch, p, checks, calls):
    # a chain record calls transform_reciprocal once per block of H columns,
    # and on these 16-point grids its whole FFT is one block; the other counts
    # do not depend on the grid sizes, so small grids keep this quick
    import hywbench.cli as cli
    from hywbench.transform import CharacterSlice

    counted = {}

    def count(owner, name):
        fn = getattr(owner, name)
        counted[name] = 0

        def wrapper(*args):
            counted[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    count(verify, "lp_norm_G")
    count(CharacterSlice, "transform_reciprocal")
    count(cli, "sample")
    cfg = RunConfig(group="heisenberg", p=p, checks=checks, grid_n=16, grid_h=16)
    run_suite(cfg.validate())
    assert tuple(counted.values()) == calls


def test_a_run_holds_one_fixture_at_a_time():
    # each family samples its pool fixture by fixture and releases each one
    # before sampling the next; a record keeps no sample, a chunk's in-band
    # pairing rows are under a fifth of a fixture and the chain's FFT holds
    # one block of H columns, a quarter of it (measured: 1.70 fixtures, and
    # 1.61 with every family)
    cfg = RunConfig(group="heisenberg", checks=("plancherel", "proof-chain")).validate()
    fixture_bytes = 16 * np.prod([g.n for g in (*cfg.grids()[0], cfg.grids()[1])])
    tracemalloc.start()
    try:
        _, summary, _ = run_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["failed"] == 0
    assert peak < 2 * fixture_bytes


def test_family_and_record_lines_add_up_to_the_suite_time(heisenberg_run):
    lines = heisenberg_run.text.splitlines()
    families = [float(ln.split()[3][:-1]) for ln in lines if ln.startswith("# family ")]
    (built,) = [ln.split() for ln in lines if ln.startswith("# records ")]
    assert built[:4] == ["#", "records", "10", "built"]
    total = sum(families) + float(built[4][:-1])
    assert total == pytest.approx(heisenberg_run.seconds, rel=0.05)


def test_every_family_reads_the_run_grids(monkeypatch):
    import hywbench.cli as cli

    def derived(group_name):
        raise AssertionError("a family derived its own discretization")

    monkeypatch.setattr(verify, "default_grids", derived)
    monkeypatch.setattr(verify, "default_sampling_config", derived)
    made = []

    def counted(fn):
        return lambda group_name: made.append(fn.__name__) or fn(group_name)

    for fn in (cli.default_sampling_config, cli.make_group):
        monkeypatch.setattr(cli, fn.__name__, counted(fn))
    records, _, _ = run_suite(RunConfig(group="axb", grid_h=32).validate())
    assert sorted(made) == ["default_sampling_config", "make_group"]  # once per run
    semi = [r["detail"] for r in records if r["family"] == "semi-invariance"]
    windows = [int(detail.split("window=")[1]) for detail in semi]
    assert len(windows) == 20 and max(windows) <= 32  # the run's H grid has 32 points
