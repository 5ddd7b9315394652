"""Tests for engine reliability scoring (repro.core.reliability)."""

import numpy as np
import pytest

from repro.analysis.engines import engine_correlation, engine_stability
from repro.core.reliability import EngineScore, score_engines, select_trusted
from repro.errors import ConfigError, InsufficientDataError


@pytest.fixture(scope="module")
def scores(experiment):
    stability = engine_stability(experiment.store, experiment.engine_names,
                                 experiment.dataset_s)
    correlation = engine_correlation(experiment.store,
                                     experiment.engine_names,
                                     file_types=())
    return score_engines(
        experiment.store.iter_reports(),
        stability.flips,
        correlation.overall,
    ), correlation.overall


class TestScoring:
    def test_every_engine_scored(self, scores, experiment):
        engine_scores, _ = scores
        assert len(engine_scores) == 70
        assert {s.engine for s in engine_scores} == set(
            experiment.engine_names
        )

    def test_fields_in_valid_ranges(self, scores):
        engine_scores, _ = scores
        for s in engine_scores:
            assert 0.0 <= s.flip_ratio <= 1.0
            assert 0.0 <= s.availability <= 1.0
            assert 0.0 <= s.coverage <= 1.0
            assert s.group_size >= 1

    def test_oem_family_shares_group(self, scores):
        engine_scores, _ = scores
        by_name = {s.engine: s for s in engine_scores}
        bdf = by_name["BitDefender"]
        fireeye = by_name["FireEye"]
        if bdf.group_id >= 0 and fireeye.group_id >= 0:
            assert bdf.group_id == fireeye.group_id
            assert bdf.group_size >= 3

    def test_stable_engine_flips_less_than_flippy(self, scores):
        engine_scores, _ = scores
        by_name = {s.engine: s for s in engine_scores}
        assert by_name["Jiangmin"].flip_ratio < by_name["F-Secure"].flip_ratio

    def test_sensitive_engine_has_higher_coverage(self, scores):
        engine_scores, _ = scores
        by_name = {s.engine: s for s in engine_scores}
        assert by_name["Kaspersky"].coverage > by_name["Zoner"].coverage

    def test_composite_penalises_groups(self):
        lone = EngineScore("lone", 0.01, 0.99, 0.8, group_size=1)
        grouped = EngineScore("grouped", 0.01, 0.99, 0.8, group_size=4,
                              group_id=0)
        assert lone.composite() > grouped.composite()

    def test_empty_reports_rejected(self, scores, experiment):
        _, correlation = scores
        stability = engine_stability(experiment.store,
                                     experiment.engine_names,
                                     experiment.dataset_s)
        with pytest.raises(InsufficientDataError):
            score_engines([], stability.flips, correlation)


class TestSelection:
    def test_selects_requested_count(self, scores):
        engine_scores, _ = scores
        trusted = select_trusted(engine_scores, count=8)
        assert len(trusted) == 8
        assert len(set(trusted)) == 8

    def test_group_diversity_first(self, scores):
        """The first pass admits at most one engine per group."""
        engine_scores, _ = scores
        by_name = {s.engine: s for s in engine_scores}
        trusted = select_trusted(engine_scores, count=6)
        group_ids = [by_name[name].group_id for name in trusted
                     if by_name[name].group_id >= 0]
        assert len(group_ids) == len(set(group_ids))

    def test_count_validation(self, scores):
        engine_scores, _ = scores
        with pytest.raises(ConfigError):
            select_trusted(engine_scores, count=0)

    def test_trusted_set_usable_by_aggregator(self, scores, experiment):
        from repro.core.aggregation import TrustedEnginesAggregator

        engine_scores, _ = scores
        trusted = select_trusted(engine_scores, count=10)
        aggregator = TrustedEnginesAggregator(
            trusted, experiment.engine_names, threshold=2
        )
        flagged = sum(
            1 for report in experiment.store.iter_reports()
            if aggregator.is_malicious(report)
        )
        assert flagged > 0

    def test_overflow_fills_by_rank(self, scores):
        engine_scores, _ = scores
        everyone = select_trusted(engine_scores, count=70)
        assert len(everyone) == 70
