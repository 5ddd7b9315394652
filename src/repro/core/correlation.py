"""Engine correlation analysis (§7.2).

The paper builds a matrix R over all scans: each row is one scan, each
column one engine, entries are 1 (malicious), 0 (benign) or −1
(undetected).  For every engine pair it computes Spearman's ρ between the
column vectors and calls the pair **strongly correlated** above 0.8; the
graph of strong correlations (Figure 11 overall, Figure 12 per type) has
connected components that recover the known OEM/copying groups
(Tables 4-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import networkx as nx
import numpy as np

from repro.errors import InsufficientDataError
from repro.stats.spearman import spearman_matrix

if TYPE_CHECKING:  # core stays import-light: store is a typing-only dep.
    from repro.store.columnar import ColumnarBatch

#: The paper's strong-correlation threshold.
STRONG_THRESHOLD = 0.8


def build_result_matrix(batch: ColumnarBatch, n_engines: int) -> np.ndarray:
    """The paper's R matrix: scans × engines with values in {1, 0, −1}.

    A reshape of ``batch``'s label plane, so row ``i`` is record ``i``.
    """
    if len(batch) == 0:
        raise InsufficientDataError(1, 0, "reports for correlation")
    if not batch.uniform or int(batch.n_engines[0]) != n_engines:
        raise ValueError(f"reports must all carry {n_engines} engines")
    out = batch.labels.reshape(len(batch), n_engines).astype(np.int8)
    # Byte 2 encodes undetected; map it to the paper's −1.
    out[out == 2] = -1
    return out


@dataclass(frozen=True)
class CorrelationAnalysis:
    """Pairwise engine correlations plus the strong-correlation graph."""

    engine_names: tuple[str, ...]
    rho: np.ndarray
    threshold: float
    n_scans: int

    def rho_of(self, first: str, second: str) -> float:
        """Spearman ρ between two named engines."""
        i = self.engine_names.index(first)
        j = self.engine_names.index(second)
        return float(self.rho[i, j])

    def strong_pairs(self) -> list[tuple[str, str, float]]:
        """All engine pairs above the strong threshold, strongest first."""
        pairs = []
        n = len(self.engine_names)
        for i in range(n):
            for j in range(i + 1, n):
                value = self.rho[i, j]
                if np.isfinite(value) and value > self.threshold:
                    pairs.append(
                        (self.engine_names[i], self.engine_names[j],
                         float(value))
                    )
        pairs.sort(key=lambda item: item[2], reverse=True)
        return pairs

    def graph(self) -> nx.Graph:
        """The strong-correlation graph (Figure 11 / Figure 12)."""
        g = nx.Graph()
        for first, second, value in self.strong_pairs():
            g.add_edge(first, second, rho=value)
        return g

    def groups(self) -> list[list[str]]:
        """Connected components of the graph — the Tables 4-8 groups,
        largest first, members sorted by name."""
        components = [sorted(c) for c in nx.connected_components(self.graph())]
        components.sort(key=lambda c: (-len(c), c))
        return components

    def involved_engines(self) -> set[str]:
        """Engines appearing in at least one strong pair (the paper found
        17 at the overall level)."""
        out: set[str] = set()
        for first, second, _ in self.strong_pairs():
            out.add(first)
            out.add(second)
        return out


def correlation_analysis(
    matrix: np.ndarray,
    engine_names: Sequence[str],
    threshold: float = STRONG_THRESHOLD,
) -> CorrelationAnalysis:
    """Run the full §7.2 analysis over a result matrix R."""
    return CorrelationAnalysis(
        engine_names=tuple(engine_names),
        rho=spearman_matrix(matrix),
        threshold=threshold,
        n_scans=matrix.shape[0],
    )


def per_type_analyses(
    matrix: np.ndarray,
    batch: ColumnarBatch,
    engine_names: Sequence[str],
    file_types: Sequence[str],
    threshold: float = STRONG_THRESHOLD,
    min_scans: int = 50,
) -> dict[str, CorrelationAnalysis]:
    """§7.2.2: one correlation analysis per file type.

    ``matrix`` is ``batch``'s R; its rows are grouped by the batch's
    file-type codes, keyed in the order of ``batch.ftypes``.  Types with
    fewer than ``min_scans`` reports are skipped — ρ over a handful of
    scans is noise.
    """
    wanted = set(file_types)
    codes = batch.ftype_codes.astype(np.int64)
    out: dict[str, CorrelationAnalysis] = {}
    for code, ftype in enumerate(batch.ftypes):
        rows = codes == code
        if ftype in wanted and rows.sum() >= min_scans:
            out[ftype] = correlation_analysis(matrix[rows], engine_names,
                                              threshold)
    return out
