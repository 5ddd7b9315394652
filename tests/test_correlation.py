"""Unit tests for engine correlation analysis (repro.core.correlation)."""

import numpy as np
import pytest

from repro.core.correlation import (
    build_result_matrix,
    correlation_analysis,
    per_type_analyses,
)
from repro.errors import InsufficientDataError
from repro.store.columnar import ColumnarBatch

from conftest import make_report

NAMES = ("leader", "copier", "indep", "noisy")


def _reports(n=200, copy_fidelity=1.0, seed=0, file_type="TXT"):
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(n):
        leader = int(rng.random() < 0.3)
        copier = leader if rng.random() < copy_fidelity else 1 - leader
        indep = int(rng.random() < 0.3)
        noisy = int(rng.random() < 0.5)
        reports.append(make_report(
            sha=f"{i:064x}", scan_time=i * 10, file_type=file_type,
            labels=[leader, copier, indep, noisy],
            versions=[1, 1, 1, 1],
        ))
    return reports


def _batch(reports):
    return ColumnarBatch.from_reports(reports)


def _matrix(reports, n_engines=4):
    return build_result_matrix(_batch(reports), n_engines)


def _analysis(reports, threshold=0.8):
    return correlation_analysis(_matrix(reports), NAMES, threshold)


def _per_type(reports, file_types, min_scans):
    batch = _batch(reports)
    return per_type_analyses(build_result_matrix(batch, 4), batch, NAMES,
                             file_types, min_scans=min_scans)


class TestResultMatrix:
    def test_values_in_paper_alphabet(self):
        reports = [make_report(labels=[1, 0, -1, 0, 1])]
        matrix = _matrix(reports, 5)
        assert matrix.tolist() == [[1, 0, -1, 0, 1]]

    def test_row_per_scan(self):
        matrix = _matrix(_reports(50))
        assert matrix.shape == (50, 4)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_result_matrix(ColumnarBatch.empty(), 4)

    def test_engine_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _matrix(_reports(5), 9)

    def test_ragged_batch_rejected(self):
        reports = _reports(3) + [make_report(labels=[1, 0, 1], n_engines=3)]
        with pytest.raises(ValueError):
            _matrix(reports)


class TestAnalysis:
    def test_copier_pair_is_strong(self):
        analysis = _analysis(_reports(400))
        assert analysis.rho_of("leader", "copier") > 0.95
        assert ("leader", "copier") in {
            (a, b) for a, b, _ in analysis.strong_pairs()
        }

    def test_independent_pair_is_weak(self):
        analysis = _analysis(_reports(400))
        assert abs(analysis.rho_of("leader", "indep")) < 0.3

    def test_imperfect_copier_below_perfect(self):
        perfect = _analysis(_reports(400, 1.0))
        sloppy = _analysis(_reports(400, 0.8, seed=1))
        assert (sloppy.rho_of("leader", "copier")
                < perfect.rho_of("leader", "copier"))

    def test_strong_pairs_sorted_desc(self):
        analysis = _analysis(_reports(400), threshold=0.1)
        values = [v for _, _, v in analysis.strong_pairs()]
        assert values == sorted(values, reverse=True)

    def test_groups_are_connected_components(self):
        analysis = _analysis(_reports(400))
        groups = analysis.groups()
        assert ["copier", "leader"] in groups

    def test_involved_engines(self):
        analysis = _analysis(_reports(400))
        assert analysis.involved_engines() >= {"leader", "copier"}

    def test_graph_carries_rho(self):
        analysis = _analysis(_reports(400))
        graph = analysis.graph()
        assert graph["leader"]["copier"]["rho"] > 0.95

    def test_n_scans_recorded(self):
        analysis = _analysis(_reports(123))
        assert analysis.n_scans == 123


class TestPerType:
    def test_groups_by_type_with_min_scans(self):
        reports = (_reports(100, file_type="TXT")
                   + _reports(10, file_type="PDF", seed=3))
        out = _per_type(reports, ["TXT", "PDF"], min_scans=50)
        assert "TXT" in out
        assert "PDF" not in out  # only 10 scans

    def test_unrequested_types_excluded(self):
        reports = _reports(100, file_type="TXT")
        out = _per_type(reports, ["PDF"], min_scans=1)
        assert out == {}

    def test_rows_selected_by_type(self):
        txt = _reports(60, file_type="TXT")
        pdf = _reports(70, 0.8, seed=2, file_type="PDF")
        mixed = [r for pair in zip(pdf, txt) for r in pair] + pdf[60:]
        out = _per_type(mixed, ["TXT", "PDF"], min_scans=1)
        assert list(out) == ["PDF", "TXT"]  # first appearance
        for ftype, reports in (("TXT", txt), ("PDF", pdf)):
            alone = _analysis(reports)
            assert out[ftype].n_scans == len(reports)
            np.testing.assert_array_equal(out[ftype].rho, alone.rho)
