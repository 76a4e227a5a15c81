"""End-to-end checks for the batch entry point and its report contract."""

import hashlib
import inspect
import json
import os

import pytest

from hywbench import verify
from hywbench.cli import (
    CHECK_FAMILIES,
    ConfigError,
    RunConfig,
    build_config,
    _build_parser,
    _write_atomic,
    explain,
    main,
    run_suite,
    write_fixture_files,
)


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
    fams = RunConfig(group="axb").validate().selected_families()
    assert "nilpotent-bound" not in fams
    assert len(fams) >= 6
    fams_h = RunConfig(group="heisenberg").validate().selected_families()
    assert "nilpotent-bound" in fams_h


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
    out = tmp_path / "m.jsonl"
    run_main(["--group", "heisenberg", "--seed", "0", "--checks", "dual-measure-scaling",
              "--out", str(out)])
    model = [r for r in parse_report(out)[2] if r["record"] == "model"][0]
    assert model["dim_N"] == 2 and model["unimodular"] is True
    assert len(model["n_grids"]) == 2 and "dual_sampling" in model


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
    assert records[-1]["worst_inequality"]["ratio"] == "inf"  # the summary too


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


def test_unwritable_report_path_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "report.jsonl"  # its directory is a regular file
    assert run_main(["--group", "axb", "--checks", "", "--out", str(out)]) == 2
    assert one_line(capsys.readouterr().err, "cannot write output: ")


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
# overflows a float, and a boolean tolerance
NAMED_VALUE_ERRORS = {
    '{"h_extent": [-1e+308, 1e+308]}': "h_extent [-1e+308, 1e+308]: need finite extents",
    '{"n_extents": [[-1e+308, 1e+308]]}': "n_extents[0] [-1e+308, 1e+308]: need finite extents",
    '{"tolerances": {"bound": true}}': "tolerance bound=True",
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
    with pytest.raises(KeyError):
        explain("nonsense")
    assert main(["explain", "nonsense"]) == 2
    assert "valid names" in capsys.readouterr().err


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
    cfg = RunConfig(group="heisenberg", p=(2.0,), checks=("nilpotent-bound",))
    records, _, _ = run_suite(cfg.validate())
    assert records == [] and sampled == []  # nilpotent-bound checks only p < 2


def test_family_wall_times_are_comment_lines():
    cfg = RunConfig(group="axb", seed=3, checks=("minkowski", "dual-measure-scaling")).validate()
    _, _, text = run_suite(cfg)
    _, _, again = run_suite(cfg)
    lines = text.splitlines()
    timed = [ln.split() for ln in lines if ln.startswith("# family ")]
    assert [t[2] for t in timed] == cfg.selected_families()  # one line per family, in order
    for t in timed:
        assert len(t) == 4 and t[3].endswith("s") and float(t[3][:-1]) >= 0.0
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body == [ln for ln in again.splitlines() if not ln.startswith("#")]
    assert body[0] == "HYWREPORT 1"
    assert [json.loads(ln)["record"] for ln in body[1:]] == [
        "config", "model", *["check"] * (len(body) - 4), "summary"
    ]


def count_record_builds(patch):
    """Every spectral record build in the package, by fixture key."""
    import hywbench.cli as cli

    builds = []
    build = cli.spectral_record

    def counted(g, *args):
        builds.append(g.spec.key())
        return build(g, *args)

    patch.setattr(cli, "spectral_record", counted)
    return builds


@pytest.fixture(scope="module")
def heisenberg_run():
    """One Heisenberg run of every family at p = 1.2, 1.5: its check records,
    the fixture keys of its spectral record builds and of its pairings."""
    from hywbench.transform import CharacterSlice

    paired = []
    pair = CharacterSlice.pair

    def counted(self, omegas):
        paired.append(self.g.spec.key())
        return pair(self, omegas)

    with pytest.MonkeyPatch.context() as patch:
        builds = count_record_builds(patch)
        patch.setattr(CharacterSlice, "pair", counted)
        records, _, _ = run_suite(RunConfig(group="heisenberg", p=(1.2, 1.5)).validate())
    return records, builds, paired


def test_nilpotent_bound_reads_the_hausdorff_young_margins(heisenberg_run, monkeypatch):
    records, builds, _ = heisenberg_run
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
    builds = count_record_builds(monkeypatch)
    cfg = RunConfig(group="heisenberg", p=(1.5,), grid_n=16, grid_h=16, checks=("nilpotent-bound",))
    run_suite(cfg.validate())
    assert len(builds) == 5
    run_suite(cfg.validate())
    assert len(builds) == 10


def test_default_heisenberg_run_pairs_each_fixture_once(heisenberg_run):
    _, _, paired = heisenberg_run
    # 10 distinct fixtures across plancherel, hausdorff-young, proof-chain and
    # nilpotent-bound, each paired once at its 64 transversal points
    assert len(paired) == 640 and len(set(paired)) == 10


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
