"""Unit tests for the verdict-timeline model (repro.vt.behavior)."""

import random

import pytest

from repro.errors import ConfigError
from repro.vt import clock
from repro.vt.behavior import (
    BehaviorContext,
    BehaviorParams,
    DetectionPlan,
    build_plan,
    _beta,
    _poisson,
)
from repro.vt.samples import Sample, sha256_of


@pytest.fixture(scope="module")
def ctx(fleet):
    return BehaviorContext(fleet, BehaviorParams(), seed=42)


_DAY30 = clock.minutes(days=30)


def _sample(token: str, malicious: bool, file_type: str = "Win32 EXE",
            first_seen: int = _DAY30) -> Sample:
    return Sample(
        sha256=sha256_of(token),
        file_type=file_type,
        malicious=malicious,
        first_seen=first_seen,
    )


class TestParams:
    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            BehaviorParams(retract_prob=-0.1)
        with pytest.raises(ConfigError):
            BehaviorParams(late_join_rate=-1)

    def test_hazard_rate_bounds(self):
        with pytest.raises(ConfigError):
            BehaviorParams(hazard_rate=2.0)


class TestSamplers:
    def test_beta_degenerate_means(self):
        rng = random.Random(1)
        assert _beta(rng, 0.0, 5.0) == 0.0
        assert _beta(rng, 1.0, 5.0) == 1.0

    def test_beta_in_unit_interval(self):
        rng = random.Random(2)
        for _ in range(200):
            assert 0.0 <= _beta(rng, 0.4, 6.0) <= 1.0

    def test_beta_mean_approximately_correct(self):
        rng = random.Random(3)
        draws = [_beta(rng, 0.3, 8.0) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(0.3, abs=0.02)

    def test_poisson_zero_rate(self):
        assert _poisson(random.Random(1), 0.0) == 0

    def test_poisson_mean(self):
        rng = random.Random(4)
        draws = [_poisson(rng, 2.5) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(2.5, abs=0.15)


class TestPlanDeterminism:
    def test_same_sample_same_plan(self, ctx):
        s1 = _sample("det", True)
        s2 = _sample("det", True)
        assert build_plan(s1, ctx).transitions == build_plan(s2, ctx).transitions

    def test_different_samples_differ(self, ctx):
        p1 = build_plan(_sample("a", True), ctx)
        p2 = build_plan(_sample("b", True), ctx)
        assert p1.transitions != p2.transitions

    def test_seed_changes_plan(self, fleet):
        ctx1 = BehaviorContext(fleet, BehaviorParams(), seed=1)
        ctx2 = BehaviorContext(fleet, BehaviorParams(), seed=2)
        s = _sample("seeded", True)
        assert (build_plan(s, ctx1).transitions
                != build_plan(s, ctx2).transitions)


class TestPlanStructure:
    def test_benign_plans_mostly_empty(self, ctx):
        empty = 0
        for i in range(300):
            plan = build_plan(_sample(f"ben{i}", False, "JPEG"), ctx)
            if not plan.transitions:
                empty += 1
        assert empty > 200  # JPEG fp_episode_prob is tiny

    def test_malicious_pe_has_detectors(self, ctx):
        detected = 0
        for i in range(50):
            plan = build_plan(_sample(f"mal{i}", True), ctx)
            if len(plan.eventual_detectors()) >= 10:
                detected += 1
        assert detected > 35  # most PE malware gets broad coverage

    def test_label_at_steps_through_transitions(self):
        plan = DetectionPlan(
            transitions={3: ((100, 1), (500, 0))},
            scan_rng=random.Random(0),
        )
        assert plan.label_at(3, 50) == 0
        assert plan.label_at(3, 100) == 1
        assert plan.label_at(3, 499) == 1
        assert plan.label_at(3, 500) == 0
        assert plan.label_at(7, 100) == 0  # engine without transitions

    def test_copied_is_held_in_ascending_follower_order(self):
        plan = DetectionPlan(transitions={}, scan_rng=random.Random(0),
                             copied={9: 1, 3: 2, 5: 1})
        assert list(plan.copied.items()) == [(3, 2), (5, 1), (9, 1)]

    def test_transitions_time_sorted(self, ctx):
        for i in range(100):
            plan = build_plan(_sample(f"s{i}", True), ctx)
            for timeline in plan.transitions.values():
                times = [t for t, _ in timeline]
                assert times == sorted(times)

    def test_observed_sequences_monotone_when_fresh(self, ctx):
        """Within the observation window, per-engine verdicts should be
        monotone except for FP episodes (the hazard-rarity property)."""
        first_seen = clock.minutes(days=10)
        dips = 0
        total = 0
        for i in range(100):
            plan = build_plan(_sample(f"m{i}", True, first_seen=first_seen),
                              ctx)
            for timeline in plan.transitions.values():
                labels_in_window = [
                    lab for t, lab in timeline if t > first_seen
                ]
                total += 1
                # A 1 followed by 0 in-window means a visible retraction:
                # allowed; a 0 followed by 1 after a 1 would be a hazard.
                for a, b, c in zip(labels_in_window, labels_in_window[1:],
                                   labels_in_window[2:], strict=False):
                    if a == c != b:
                        dips += 1
        assert total > 0
        assert dips == 0  # default hazard_rate is ~0


class TestGroundTruthStructure:
    def test_known_malware_fully_detected_at_first_scan(self, ctx):
        """Some malicious samples must be fully covered pre-submission."""
        fully_pre = 0
        for i in range(200):
            s = _sample(f"k{i}", True)
            plan = build_plan(s, ctx)
            if plan.transitions and all(
                timeline[0][0] < s.first_seen
                for timeline in plan.transitions.values()
            ):
                fully_pre += 1
        assert fully_pre > 20

    def test_fresh_growth_exists(self, ctx):
        """Other samples gain detections after first submission."""
        growers = 0
        for i in range(200):
            s = _sample(f"g{i}", True)
            plan = build_plan(s, ctx)
            if any(timeline[0][0] > s.first_seen and timeline[0][1] == 1
                   for timeline in plan.transitions.values()):
                growers += 1
        assert growers > 60

    def test_copied_followers_recorded(self, ctx):
        copied_seen = 0
        for i in range(50):
            plan = build_plan(_sample(f"c{i}", True), ctx)
            for follower, leader in plan.copied.items():
                copied_seen += 1
                follower_tl = plan.transitions.get(follower)
                leader_tl = plan.transitions.get(leader)
                assert follower_tl == leader_tl
        assert copied_seen > 50  # many copy rules fire on PE samples

    def test_gzip_copy_rule_only_fires_on_gzip(self, ctx, fleet):
        lionic = fleet.index["Lionic"]
        for i in range(100):
            plan = build_plan(_sample(f"z{i}", True, "ZIP"), ctx)
            assert lionic not in plan.copied
