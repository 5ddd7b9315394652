"""Tests for the Section 7 pipelines (repro.analysis.engines)."""

import numpy as np
import pytest

from repro.analysis.engines import (
    APPENDIX_FILE_TYPES,
    engine_correlation,
    engine_stability,
)
from repro.core.correlation import build_result_matrix
from repro.core.flips import analyze_flips
from repro.store.columnar import ColumnarBatch
from repro.vt.filetypes import TOP20_FILE_TYPES


def _dataset_s_reports(store):
    """Dataset S as a predicate over grouped reports: fresh, top-20 type,
    multi-report, AV-Rank not constant."""
    for sha, reports in store.iter_sample_reports():
        ranks = [r.positives for r in reports]
        if (len(reports) >= 2
                and reports[0].file_type in TOP20_FILE_TYPES
                and reports[0].first_submission_date >= 0
                and max(ranks) != min(ranks)):
            yield sha, reports


@pytest.fixture(scope="module")
def stability(experiment):
    return engine_stability(experiment.store, experiment.engine_names,
                            experiment.dataset_s)


@pytest.fixture(scope="module")
def correlation(experiment):
    return engine_correlation(experiment.store, experiment.engine_names,
                              min_scans=30)


class TestDatasetSFilter:
    def test_membership_rules(self, experiment):
        selected = [sha for sha, _ in _dataset_s_reports(experiment.store)]
        assert len(selected) == len(set(selected)) > 0
        assert set(selected) == {s.sha256 for s in experiment.dataset_s}

    def test_flips_match_predicate_stream(self, experiment, stability):
        reference = analyze_flips(_dataset_s_reports(experiment.store),
                                  experiment.engine_names)
        flips = stability.flips
        assert flips.sample_count == reference.sample_count
        assert flips.report_count == reference.report_count
        for name in ("flips_up", "flips_down", "pairs", "hazards_010",
                     "hazards_101"):
            np.testing.assert_array_equal(getattr(flips, name),
                                          getattr(reference, name))
        assert list(flips.per_type_flips) == list(reference.per_type_flips)


class TestEngineStability:
    def test_flips_exist(self, stability):
        assert stability.flips.total_flips > 100

    def test_up_flips_dominate(self, stability):
        # Paper §7.1.1: 0->1 flips outnumber 1->0 roughly 2.7:1.
        assert stability.up_down_ratio > 1.3

    def test_hazards_are_rare(self, stability):
        # The headline disagreement with Zhu et al.: hazard flips are a
        # vanishing share of flips in organic scan data.
        assert stability.hazard_share < 0.02

    def test_update_coincidence_near_paper(self, stability):
        # Paper §5.5: ~60 % of flips co-occur with an engine update.
        assert 0.40 < stability.flips.update_coincidence_rate < 0.85

    def test_stable_engines_flip_less(self, stability):
        flips = stability.flips
        jiangmin = flips.flip_ratio("Jiangmin")
        fsecure = flips.flip_ratio("F-Secure")
        assert jiangmin < fsecure

    def test_flip_matrix_covers_appendix_types(self, stability):
        types, matrix = stability.flips.flip_ratio_matrix(
            APPENDIX_FILE_TYPES
        )
        assert types == list(APPENDIX_FILE_TYPES)
        assert matrix.shape == (5, 70)


class TestResultMatrixFromStore:
    def test_plane_matrix_equals_report_labels(self, experiment):
        reports = list(experiment.store.iter_reports())
        expected = np.array([r.engine_labels() for r in reports], np.int8)
        batch = ColumnarBatch.concat(list(experiment.store.iter_batches()))
        matrix = build_result_matrix(batch, len(experiment.engine_names))
        assert matrix.dtype == np.int8
        assert matrix.shape == expected.shape
        np.testing.assert_array_equal(matrix, expected)
        shas = np.array([bytes.fromhex(r.sha256) for r in reports], "S32")
        np.testing.assert_array_equal(batch.shas, shas)

    def test_per_type_keys_in_stream_order(self, experiment):
        result = engine_correlation(experiment.store, experiment.engine_names,
                                    file_types=TOP20_FILE_TYPES, min_scans=1)
        seen = []
        for report in experiment.store.iter_reports():
            if (report.file_type in TOP20_FILE_TYPES
                    and report.file_type not in seen):
                seen.append(report.file_type)
        assert len(seen) > 2
        assert list(result.per_type) == seen


class TestEngineCorrelation:
    def test_known_pairs_recovered(self, correlation):
        overall = correlation.overall
        assert overall.rho_of("Avast", "AVG") > 0.9
        assert overall.rho_of("Paloalto", "APEX") > 0.9
        assert overall.rho_of("BitDefender", "FireEye") > 0.9

    def test_independent_pair_not_strong(self, correlation):
        assert correlation.overall.rho_of("Kaspersky", "DrWeb") < 0.8

    def test_oem_family_in_one_group(self, correlation):
        groups = correlation.overall_groups()
        bdf_group = next(g for g in groups if "BitDefender" in g)
        for member in ("FireEye", "MAX", "ALYac", "Ad-Aware"):
            assert member in bdf_group

    def test_involved_engine_count_near_paper(self, correlation):
        # Paper: 17 engines at the overall level.
        involved = correlation.overall.involved_engines()
        assert 10 <= len(involved) <= 32

    def test_per_type_analyses_present(self, correlation):
        assert "Win32 EXE" in correlation.per_type

    def test_groups_for_unanalysed_type_empty(self, correlation):
        assert correlation.groups_for("TYPE_300") == []

    def test_win32_exe_avast_avg_group(self, correlation):
        groups = correlation.groups_for("Win32 EXE")
        if groups:
            flattened = {name for group in groups for name in group}
            assert "Avast" in flattened or "BitDefender" in flattened
