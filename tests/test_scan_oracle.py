"""Differential oracle for the simulator's scan hot path.

:meth:`VirusTotalService._analyze` draws each engine's availability from
a precomputed activity vector, resolves copied availability in the
plan's pre-sorted follower order, evaluates verdicts only for engines
with a timeline and reads the version tuple from the fleet's epoch
table.  This module keeps the per-engine loop it replaced as a
deliberately naive reference — every engine draws, walks its timeline
(``DetectionPlan.label_at``) and bisects its own version schedule
(``EngineFleet.version_at``) — and checks the two side by side:

* ``labels``, ``positives``, ``total`` and ``versions`` agree on every
  scan, and the sample's scan stream is at the same point afterwards
  (the next draw matches), so later scans and the store digest cannot
  drift;
* inputs cover malicious and benign samples of every category (most
  malicious ones fire copy rules), timestamps at and one minute either
  side of every verdict transition and version bump, and timestamps
  before the first bump and past the schedule horizon;
* planted defects — a follower-order swap in the correlated
  availability draws, an off-by-one epoch lookup — are caught.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vt import clock
from repro.vt.behavior import BehaviorParams, DetectionPlan, build_plan
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService

SEED = 5
FIDELITY = VirusTotalService.COPIED_AVAILABILITY_FIDELITY

#: One file type per category, plus GZIP for the type-restricted rule.
FILE_TYPES = ("Win32 EXE", "ELF executable", "DEX", "PDF", "HTML", "TXT",
              "ZIP", "GZIP", "JPEG", "NULL")

#: Default behaviour, and one that puts a hazard dip and a flapping
#: engine on every malicious sample (timelines with many transitions).
BEHAVIORS = (BehaviorParams(), BehaviorParams(hazard_rate=1.0, flap_rate=1.0))


def _flaky_fleet(seed: int) -> EngineFleet:
    """The default fleet with frequent timeouts, so availability (and a
    follower copying its leader's) decides many labels."""
    engines = [replace(e, activity=0.6) for e in default_fleet(seed).engines]
    return EngineFleet(engines, seed=seed)


FLEETS = {
    "default": default_fleet(SEED),
    "no-copy": default_fleet(SEED, copy_rules=False),
    "flaky": _flaky_fleet(SEED),
}

# ---------------------------------------------------------------------------
# The naive reference
# ---------------------------------------------------------------------------


def naive_scan(fleet: EngineFleet, plan: DetectionPlan, timestamp: int):
    """One analysis, engine by engine, as the service used to run it."""
    rng = plan.scan_rng
    n = len(fleet)
    labels = bytearray(n)
    active = [rng.random() < fleet.engines[idx].activity for idx in range(n)]
    for follower in sorted(plan.copied):
        if rng.random() < FIDELITY:
            active[follower] = active[plan.copied[follower]]
    positives = 0
    total = 0
    for idx in range(n):
        if not active[idx]:
            labels[idx] = 2
            continue
        total += 1
        if plan.label_at(idx, timestamp):
            labels[idx] = 1
            positives += 1
    versions = tuple(fleet.version_at(idx, timestamp) for idx in range(n))
    return bytes(labels), positives, total, versions


def _peek(rng: random.Random) -> float:
    """The stream's next draw, without advancing it."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin.random()


def first_mismatch(fleet, behavior, sample, timestamps):
    """Scan ``sample`` at each timestamp through the service and the
    oracle side by side; the first disagreement, or ``None``."""
    service = VirusTotalService(fleet=fleet, params=behavior, seed=SEED)
    live = sample.clone()
    service.register(live)
    reference = build_plan(sample.clone(), service.ctx)
    for when in timestamps:
        report = service.rescan(live, when)
        got = (report.labels, report.positives, report.total, report.versions)
        expected = naive_scan(fleet, reference, when)
        if got != expected:
            return when, "report", got, expected
        if _peek(live.plan.scan_rng) != _peek(reference.scan_rng):
            return when, "scan_rng", None, None
    return None


# ---------------------------------------------------------------------------
# Timestamps worth probing
# ---------------------------------------------------------------------------


def _bumps(fleet: EngineFleet) -> list[int]:
    return sorted({b for name in fleet.names for b in fleet.version_schedule(name)})


def _around(points) -> list[int]:
    return sorted({p + d for p in points for d in (-1, 0, 1)})


def _transition_times(plan: DetectionPlan) -> list[int]:
    return [when for timeline in plan.transitions.values()
            for when, _ in timeline]


def _edges(fleet: EngineFleet) -> list[int]:
    """Before the first bump, and past the schedule horizon."""
    bumps = _bumps(fleet)
    horizon = clock.WINDOW_MINUTES + EngineFleet.SCHEDULE_OVERRUN
    return [bumps[0] - 1, bumps[0] - 10**6, -EngineFleet.SCHEDULE_BACKFILL,
            bumps[-1] + 1, horizon, horizon + 10**6]


def _sample(token: str, malicious: bool, file_type: str, first_seen: int):
    return Sample(sha256=sha256_of(token), file_type=file_type,
                  malicious=malicious, first_seen=first_seen)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    fleet_name=st.sampled_from(sorted(FLEETS)),
    behavior=st.sampled_from(BEHAVIORS),
    token=st.text(alphabet="abcdef0123", min_size=1, max_size=8),
    malicious=st.booleans(),
    file_type=st.sampled_from(FILE_TYPES),
    first_seen=st.integers(min_value=-clock.minutes(days=500),
                           max_value=clock.WINDOW_MINUTES),
)
def test_scan_matches_naive_reference(data, fleet_name, behavior, token,
                                      malicious, file_type, first_seen):
    fleet = FLEETS[fleet_name]
    sample = _sample(token, malicious, file_type, first_seen)
    plan = build_plan(sample, VirusTotalService(
        fleet=fleet, params=behavior, seed=SEED).ctx)
    near_transitions = _around(_transition_times(plan)) or [first_seen]
    timestamp = st.one_of(
        st.sampled_from(near_transitions),
        st.sampled_from(_around(_bumps(fleet))),
        st.sampled_from(_edges(fleet)),
        st.integers(min_value=-EngineFleet.SCHEDULE_BACKFILL - 10,
                    max_value=clock.WINDOW_MINUTES + 10**5),
    )
    timestamps = data.draw(st.lists(timestamp, min_size=1, max_size=12))
    assert first_mismatch(fleet, behavior, sample, timestamps) is None


@pytest.mark.parametrize("behavior", BEHAVIORS, ids=["default", "multi"])
@pytest.mark.parametrize("fleet_name", sorted(FLEETS))
def test_every_transition_and_edge_matches(fleet_name, behavior):
    """Systematic sweep: every file type, both truths, every transition
    time and one minute either side, plus the schedule edges."""
    fleet = FLEETS[fleet_name]
    ctx = VirusTotalService(fleet=fleet, params=behavior, seed=SEED).ctx
    copied = 0
    for i, file_type in enumerate(FILE_TYPES):
        for malicious in (True, False):
            sample = _sample(f"sweep{i}{malicious}", malicious, file_type,
                             clock.minutes(days=3 * i))
            plan = build_plan(sample, ctx)
            copied += len(plan.copied)
            timestamps = (_around(_transition_times(plan))
                          + _edges(fleet) + [sample.first_seen])
            assert first_mismatch(fleet, behavior, sample, timestamps) is None
    # The sweep exercises correlated availability wherever rules exist.
    assert (copied > 0) == (fleet_name != "no-copy")


@pytest.mark.parametrize("fleet_name", sorted(FLEETS))
def test_versions_at_every_bump_matches_per_engine(fleet_name):
    fleet = FLEETS[fleet_name]
    n = len(fleet)
    for when in _around(_bumps(fleet)) + _edges(fleet):
        assert fleet.versions_at(when) == tuple(
            fleet.version_at(i, when) for i in range(n))


@settings(max_examples=200, deadline=None)
@given(when=st.integers(min_value=-EngineFleet.SCHEDULE_BACKFILL - 10**6,
                        max_value=clock.WINDOW_MINUTES + 10**6))
def test_versions_at_matches_per_engine(when):
    fleet = FLEETS["default"]
    assert fleet.versions_at(when) == tuple(
        fleet.version_at(i, when) for i in range(len(fleet)))


def test_reports_in_one_epoch_share_the_version_tuple():
    fleet = FLEETS["default"]
    bumps = _bumps(fleet)
    start, end = bumps[10], bumps[11]
    assert end - start > 1
    assert fleet.versions_at(start) is fleet.versions_at(end - 1)
    assert fleet.versions_at(end) != fleet.versions_at(end - 1)


# ---------------------------------------------------------------------------
# Planted defects: the oracle must catch them
# ---------------------------------------------------------------------------


def _sweep_finds_mismatch(fleet) -> bool:
    behavior = BehaviorParams()
    for i in range(20):
        sample = _sample(f"plant{i}", True, "Win32 EXE", clock.minutes(days=i))
        timestamps = [sample.first_seen + clock.minutes(days=d)
                      for d in range(0, 60, 3)]
        timestamps += _around(_bumps(fleet)[::25])
        if first_mismatch(fleet, behavior, sample, timestamps) is not None:
            return True
    return False


def test_oracle_catches_follower_order_swap(monkeypatch):
    fleet = _flaky_fleet(SEED)
    assert not _sweep_finds_mismatch(fleet)

    def descending(plan):
        plan.copied = dict(sorted(plan.copied.items(), reverse=True))

    monkeypatch.setattr(DetectionPlan, "__post_init__", descending)
    assert _sweep_finds_mismatch(_flaky_fleet(SEED))


def test_oracle_catches_off_by_one_epoch(monkeypatch):
    assert not _sweep_finds_mismatch(default_fleet(SEED))

    def off_by_one(fleet, timestamp):
        epoch = bisect_left(fleet._epoch_starts, timestamp)
        versions = fleet._epoch_versions[epoch]
        if versions is None:
            versions = tuple(fleet.version_at(i, timestamp)
                             for i in range(len(fleet)))
            fleet._epoch_versions[epoch] = versions
        return versions

    monkeypatch.setattr(EngineFleet, "versions_at", off_by_one)
    assert _sweep_finds_mismatch(default_fleet(SEED))
