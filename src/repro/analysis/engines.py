"""Section 7 pipelines: engine flips (Figure 10) and correlation
(Figures 11-12, Tables 4-8).

These are the only pipelines that read per-engine verdict vectors rather
than AV-Rank series, so they take the store plus the fleet's engine-name
order.  Correlation reads the store's label plane directly; the flip
analysis walks dataset *S*'s grouped reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.avrank import AVRankSeries
from repro.core.correlation import (
    CorrelationAnalysis,
    build_result_matrix,
    correlation_analysis,
    per_type_analyses,
)
from repro.core.flips import FlipStats, analyze_flips
from repro.store.columnar import ColumnarBatch
from repro.store.reportstore import ReportStore

#: The file types the paper's appendix tabulates (Tables 4-8).
APPENDIX_FILE_TYPES: tuple[str, ...] = ("Win32 EXE", "TXT", "HTML", "ZIP", "PDF")


@dataclass(frozen=True)
class EngineStabilityResult:
    """Figure 10 plus §7.1.1's headline flip counts."""

    flips: FlipStats

    @property
    def up_down_ratio(self) -> float:
        """Paper: 12.27 M 0→1 vs 4.57 M 1→0 (≈2.7×)."""
        down = self.flips.total_flips_down
        return self.flips.total_flips_up / down if down else float("inf")

    @property
    def hazard_share(self) -> float:
        """Hazards per flip — the paper found this effectively zero,
        contradicting Zhu et al.'s >50 % under daily rescans."""
        total = self.flips.total_flips
        return self.flips.total_hazards / total if total else 0.0


def engine_stability(
    store: ReportStore,
    engine_names: Sequence[str],
    dataset_s: Iterable[AVRankSeries],
) -> EngineStabilityResult:
    """Run the §7.1 flip analysis (Figure 10) over dataset *S*
    (:attr:`~repro.analysis.experiment.ExperimentData.dataset_s`)."""
    members = {series.sha256 for series in dataset_s}
    source = ((sha, reports) for sha, reports in store.iter_sample_reports()
              if sha in members)
    return EngineStabilityResult(flips=analyze_flips(source, engine_names))


@dataclass(frozen=True)
class EngineCorrelationResult:
    """Figures 11-12 and Tables 4-8."""

    overall: CorrelationAnalysis
    per_type: dict[str, CorrelationAnalysis]

    def overall_groups(self) -> list[list[str]]:
        """Figure 11's strongly-correlated engine groups."""
        return self.overall.groups()

    def groups_for(self, file_type: str) -> list[list[str]]:
        """Tables 4-8: groups for one file type (empty if not analysed)."""
        analysis = self.per_type.get(file_type)
        return analysis.groups() if analysis is not None else []


def engine_correlation(
    store: ReportStore,
    engine_names: Sequence[str],
    file_types: Sequence[str] = APPENDIX_FILE_TYPES,
    threshold: float = 0.8,
    min_scans: int = 50,
) -> EngineCorrelationResult:
    """Run the §7.2 correlation analysis overall and per file type.

    One pass over the store's blocks builds R from the label plane; the
    per-type keys follow the file types' first appearance in store order.
    """
    batch = ColumnarBatch.concat(list(store.iter_batches()))
    matrix = build_result_matrix(batch, len(engine_names))
    return EngineCorrelationResult(
        overall=correlation_analysis(matrix, engine_names, threshold),
        per_type=per_type_analyses(matrix, batch, engine_names, file_types,
                                   threshold, min_scans),
    )
