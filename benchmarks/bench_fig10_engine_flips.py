"""Figure 10 / §7.1 / Observation 10: per-engine label flips.

Paper headline numbers over dataset S (109 M reports): 16,838,818 flips —
12,270,147 of them 0→1 and 4,568,671 1→0 (≈2.7:1) — and only **9** hazard
flips, flatly contradicting Zhu et al.'s >50 % hazard share under daily
reschedule; flip ratios vary wildly per engine × file type (Arcabit:
25.78 % on ELF executables vs 0.05 % on DEX), with Arcabit / F-Secure /
Lionic flippy and Jiangmin / AhnLab stable.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.engines import APPENDIX_FILE_TYPES, engine_stability
from repro.analysis.rendering import render_fig10

from conftest import run_once, say


def test_fig10_engine_flips(benchmark, bench_data):
    result = run_once(
        benchmark,
        partial(engine_stability, bench_data.store,
                bench_data.engine_names, bench_data.dataset_s),
    )
    flips = result.flips
    say()
    say(render_fig10(flips, APPENDIX_FILE_TYPES))

    # Direction: detections arrive more often than they retract.
    assert result.up_down_ratio > 1.3     # paper: ~2.7

    # Hazard flips are a vanishing share of flips (paper: 9 of 16.8 M).
    assert result.hazard_share < 0.02

    # Update co-occurrence (§5.5's check re-run at fleet level).
    assert 0.40 < flips.update_coincidence_rate < 0.85

    # Stable engines vs flippy engines.
    assert flips.flip_ratio("Jiangmin") < flips.flip_ratio("F-Secure")
    assert flips.flip_ratio("AhnLab") < flips.flip_ratio("F-Secure")

    # Arcabit's ELF/DEX contrast, when both cells have data.
    types, matrix = flips.flip_ratio_matrix(["ELF executable", "DEX"])
    arcabit = flips.engine_names.index("Arcabit")
    elf_ratio = matrix[0][arcabit]
    dex_ratio = matrix[1][arcabit]
    import math

    if not math.isnan(elf_ratio) and not math.isnan(dex_ratio):
        assert elf_ratio > dex_ratio
