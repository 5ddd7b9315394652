"""Calibration self-check: measured headline statistics vs paper targets.

EXPERIMENTS.md records paper-vs-measured once; this module makes that
comparison executable.  :func:`calibration_report` runs every headline
analysis over an :class:`~repro.analysis.experiment.ExperimentData` and
grades each statistic against its published value with a tolerance band,
so a change to the simulator that silently breaks a reproduced shape is
caught by one call (and by the calibration test that wraps it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis import dynamics as dynamics_mod
from repro.analysis import stabilization as stab_mod
from repro.analysis.engines import engine_stability
from repro.analysis.experiment import ExperimentData


@dataclass(frozen=True)
class CalibrationTarget:
    """One headline statistic with its paper value and tolerance."""

    name: str
    paper_value: float
    measured: float
    #: Acceptable absolute deviation from the paper value.  Wide bands
    #: mark statistics EXPERIMENTS.md lists as knowingly partial.
    tolerance: float
    section: str

    @property
    def deviation(self) -> float:
        return abs(self.measured - self.paper_value)

    @property
    def within(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class CalibrationReport:
    """Every graded headline statistic for one run."""

    targets: tuple[CalibrationTarget, ...]

    @property
    def passed(self) -> bool:
        return all(t.within for t in self.targets)

    def failures(self) -> list[CalibrationTarget]:
        return [t for t in self.targets if not t.within]

    def render(self) -> str:
        lines = ["calibration report (measured vs paper):"]
        for t in self.targets:
            flag = "ok  " if t.within else "OFF "
            lines.append(
                f"  [{flag}] {t.section:6s} {t.name:42s} "
                f"paper={t.paper_value:7.3f} measured={t.measured:7.3f} "
                f"(tol ±{t.tolerance:.3f})"
            )
        return "\n".join(lines)


def calibration_report(data: ExperimentData) -> CalibrationReport:
    """Grade a run against the paper's headline numbers."""
    series = data.series()
    dataset_s = data.dataset_s

    split = dynamics_mod.stable_dynamic_split(series)
    stable_profile = dynamics_mod.stable_sample_profile(series)
    deltas = dynamics_mod.delta_distributions(dataset_s)
    impact = dynamics_mod.threshold_impact(dataset_s)
    avrank_stab = stab_mod.avrank_stabilization_profile(dataset_s)
    label_stab = stab_mod.label_stabilization_profile(dataset_s)
    stability = engine_stability(data.store, data.engine_names, dataset_s)

    lo_label, hi_label = label_stab.stabilized_fraction_range()
    overall_gray_peak = max(c.gray_fraction for c in impact.overall)
    low_t_gray = max(c.gray_fraction for c in impact.overall
                     if 3 <= c.threshold <= 11)
    pe_low_gray = max(c.gray_fraction for c in impact.pe_only
                      if 3 <= c.threshold <= 18)

    targets = (
        CalibrationTarget("dynamic share of multi-report samples",
                          0.501, split.dynamic_fraction, 0.08, "Obs 1"),
        CalibrationTarget("stable samples at AV-Rank 0",
                          0.6636, stable_profile.rank_zero_fraction,
                          0.07, "Obs 2"),
        CalibrationTarget("stable samples at AV-Rank <= 5",
                          0.85, stable_profile.rank_at_most_5_fraction,
                          0.10, "Obs 2"),
        CalibrationTarget("adjacent pairs with no change (delta=0)",
                          0.3549, deltas.adjacent_zero_fraction,
                          0.20, "Obs 3"),
        CalibrationTarget("samples with Delta > 2",
                          0.50, deltas.overall_above_2_fraction,
                          0.12, "Obs 3"),
        CalibrationTarget("samples with Delta <= 11",
                          0.90, deltas.overall_within_11_fraction,
                          0.10, "Obs 3"),
        CalibrationTarget("overall gray peak",
                          0.1492, overall_gray_peak, 0.06, "Obs 6"),
        CalibrationTarget("overall gray max over t in 3-11",
                          0.07, low_t_gray, 0.06, "Obs 6"),
        CalibrationTarget("PE gray max over t in 3-18",
                          0.06, pe_low_gray, 0.06, "Obs 6"),
        CalibrationTarget("flips with engine update",
                          0.60, stability.flips.update_coincidence_rate,
                          0.15, "Obs 7"),
        CalibrationTarget("AV-Rank stabilised at r=1",
                          0.551, avrank_stab.stabilized_fraction(1),
                          0.12, "Obs 8"),
        CalibrationTarget("AV-Rank stabilised at r=5",
                          0.8811, avrank_stab.stabilized_fraction(5),
                          0.10, "Obs 8"),
        CalibrationTarget("labels eventually stable (min over t)",
                          0.9314, lo_label, 0.06, "Obs 9"),
        CalibrationTarget("labels eventually stable (max over t)",
                          0.9804, hi_label, 0.04, "Obs 9"),
        CalibrationTarget("0->1 to 1->0 flip ratio",
                          2.69, (stability.up_down_ratio), 1.2, "7.1.1"),
        CalibrationTarget("hazard share of flips",
                          0.0, stability.hazard_share, 0.02, "7.1.1"),
    )
    return CalibrationReport(targets=targets)


def assert_calibrated(
    data: ExperimentData,
    fail: Callable[[str], None] | None = None,
) -> CalibrationReport:
    """Raise (or call ``fail``) when any headline statistic is off."""
    report = calibration_report(data)
    if not report.passed:
        message = "calibration drift:\n" + report.render()
        if fail is not None:
            fail(message)
        else:
            raise AssertionError(message)
    return report
