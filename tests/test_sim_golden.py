"""Pinned store digests of fixed-seed simulator runs.

The digest gate elsewhere in the suite proves that two runs agree with
each other (serial vs parallel, per-report vs bulk ingest).  These pins
prove that the simulator itself still produces the same bytes: any
change to the order or number of random draws in plan construction or
scanning, to a version schedule, or to how a report is assembled moves
at least one of them.  A simulator optimisation must keep all three
exactly.

The three configs cover the default fleet, a fleet without copy rules
(no copied timelines, no correlated availability draws) and a behaviour
preset that puts a hazard dip and a flapping engine on every malicious
sample, so timelines with many transitions are exercised.

Two more pins cover what sits on top of the stream: the bytes of the
saved store file (block layout, compression, header and index section)
and the stdout of ``repro-vt all`` (every table and figure as rendered
text).  A store or analysis refactor must keep both exactly.
"""

import hashlib

import pytest

from repro import cli
from repro.analysis.experiment import run_experiment
from repro.synth.scenario import dynamics_scenario
from repro.vt.behavior import BehaviorParams
from repro.vt.engines import default_fleet

GOLDEN_DEFAULT = "40b5657f04007d073dabf7b3531993d24d6a8fa56d2657bb72ff3613a148400a"
GOLDEN_NO_COPY = "fa5fb82db4b7077e7b620b9e4babe8ee5aef760883ffd7ab97312a38969ec6cd"
GOLDEN_MULTI_TRANSITION = (
    "df80041f3d301bd1cd5d4bb10aa7e00d92cd5f80679334c621994464821a0dfe"
)
GOLDEN_SAVED_FILE = (
    "00c93638deba2f83658500655fec3f1add06d450f5c5bb0fb5e06d84d6b40c90"
)
GOLDEN_ALL_TEXT = (
    "3967ced5cac5f0fc5ec92178085ac4448066a9d5ea21bb6819467b84e4a8d3e1"
)


@pytest.fixture(scope="module")
def config():
    return dynamics_scenario(300, seed=4)


def test_default_fleet_digest(config):
    assert run_experiment(config).store.digest() == GOLDEN_DEFAULT


def test_no_copy_rules_digest(config):
    fleet = default_fleet(4, copy_rules=False)
    assert run_experiment(config, fleet=fleet).store.digest() == GOLDEN_NO_COPY


def test_multi_transition_digest(config):
    behavior = BehaviorParams(hazard_rate=1.0, flap_rate=1.0)
    data = run_experiment(config.with_(behavior=behavior))
    assert data.store.digest() == GOLDEN_MULTI_TRANSITION


def test_saved_store_file_digest(config, tmp_path):
    path = tmp_path / "run.store"
    run_experiment(config).store.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SAVED_FILE


def test_all_command_text_digest(config, capsys):
    argv = ["--samples", str(config.n_samples), "--seed", str(config.seed),
            "all"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_ALL_TEXT
