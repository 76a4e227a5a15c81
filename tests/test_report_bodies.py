"""tools/report_bodies.py: one digest per fixed ``hyw run`` config, per demo,
per group's fixture manifest and per listed perfbench workload."""

import importlib.util
import os

import pytest

from hywbench.cli import _build_parser, build_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("report_bodies", os.path.join(ROOT, "tools", "report_bodies.py"))
report_bodies = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_bodies)


@pytest.mark.parametrize("args", report_bodies.CONFIGS)
def test_every_listed_config_validates(args):
    build_config(_build_parser().parse_args(["run", *args.split()]))


def test_the_demo_list_is_every_demo():
    names = os.listdir(os.path.join(ROOT, "demos"))
    assert sorted(report_bodies.DEMOS) == sorted(f"demos/{n}" for n in names if n.endswith(".py"))


def test_a_demo_gives_the_same_digest_twice():
    first = report_bodies.demo_digest("demos/01_group_models.py")
    assert len(first) == 64 and report_bodies.demo_digest("demos/01_group_models.py") == first


def test_a_config_gives_the_same_digest_twice():
    (args,) = [a for a in report_bodies.CONFIGS if "--group axb" in a and "--grid-n 4" in a]
    first = report_bodies.digest(args)
    assert len(first) == 64 and report_bodies.digest(args) == first


def test_the_axb_fixture_manifest_gives_the_same_digest_twice():
    first = report_bodies.fixtures_digest("axb")
    assert len(first) == 64 and report_bodies.fixtures_digest("axb") == first


def test_the_heis_hy_sweep_body_gives_the_same_digest_twice():
    first = report_bodies.perfbench_digest("heis-hy-sweep")
    assert len(first) == 64 and report_bodies.perfbench_digest("heis-hy-sweep") == first
