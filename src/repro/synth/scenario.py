"""Scenario configuration and presets.

A :class:`ScenarioConfig` fully determines a synthetic dataset: the same
config and seed always regenerate byte-identical reports.  Three presets
cover the library's uses:

* :func:`paper_scenario` — the full population mix (all 351 file types,
  Figure 1 report counts, 91.76 % fresh) for the dataset-overview
  experiments (Tables 2-3, Figure 1);
* :func:`dynamics_scenario` — the paper's analysis dataset *S* generated
  directly: fresh samples of the top-20 file types with at least two
  reports each (§5.3.1), for the dynamics/stabilisation/engine
  experiments;
* :func:`tiny_scenario` — a fast small config for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, standard_chaos_plan
from repro.vt.behavior import BehaviorParams
from repro.vt.filetypes import FILE_TYPES, TOP20_FILE_TYPES

#: Paper Table 2 monthly report counts (millions), used as relative
#: weights for when fresh samples first appear.
MONTHLY_WEIGHTS: tuple[float, ...] = (
    41.3, 51.9, 59.5, 60.4, 64.5, 55.1, 57.7,
    59.4, 69.7, 62.0, 76.8, 68.6, 62.4, 58.2,
)

#: Paper §4.1: share of samples first submitted inside the window.
FRESH_FRACTION = 0.9176


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate one synthetic dataset."""

    seed: int = 0
    n_samples: int = 10_000
    #: Restrict generation to these file types (None = full catalogue).
    file_types: tuple[str, ...] | None = None
    #: Force every sample to be fresh (dataset S construction).
    fresh_only: bool = False
    fresh_fraction: float = FRESH_FRACTION
    #: Minimum reports per sample; 2 generates only multi-report samples.
    min_reports: int = 1
    #: Force every sample to exactly this many reports (None = draw from
    #: the Figure 1 mixture).  Used by the rescan-cadence ablation to
    #: emulate Zhu et al.'s daily-snapshot protocol.
    forced_report_count: int | None = None
    #: Baseline probability of a sample being rescanned at least once.
    base_multi_prob: float = 0.1119
    #: Extra rescan propensity for malicious samples (users resubmit
    #: suspicious files), which skews the multi-report population toward
    #: malware as in the paper's dataset S.
    malicious_rescan_boost: float = 4.0
    #: Rescan interval distribution (log-normal, by ground truth).
    interval_median_days_malicious: float = 6.0
    interval_median_days_benign: float = 12.0
    interval_sigma: float = 1.6
    #: Fleet behaviour tunables.
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    #: Report-store block size.
    block_records: int = 256
    #: Report-store decoded-block cache budget in bytes (None = the
    #: store's default).
    store_cache_bytes: int | None = None
    #: Fault plan for the resilient-collection pipeline (None = no
    #: injected faults).  Ignored by :func:`run_experiment`; consumed by
    #: :func:`repro.collect.run_collection`.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ConfigError("n_samples must be positive")
        if self.min_reports < 1:
            raise ConfigError("min_reports must be >= 1")
        if self.forced_report_count is not None and self.forced_report_count < 1:
            raise ConfigError("forced_report_count must be >= 1")
        if not 0.0 <= self.fresh_fraction <= 1.0:
            raise ConfigError("fresh_fraction must be in [0,1]")
        if self.file_types is not None:
            for name in self.file_types:
                if name not in FILE_TYPES:
                    raise ConfigError(f"unknown file type in scenario: {name!r}")
        if self.interval_sigma <= 0:
            raise ConfigError("interval_sigma must be positive")
        if self.store_cache_bytes is not None and self.store_cache_bytes < 0:
            raise ConfigError("store_cache_bytes must be >= 0")

    def with_(self, **overrides) -> "ScenarioConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


def paper_scenario(n_samples: int = 50_000, seed: int = 0) -> ScenarioConfig:
    """The full-population mix behind Tables 2-3 and Figure 1."""
    return ScenarioConfig(seed=seed, n_samples=n_samples)


def dynamics_scenario(n_samples: int = 20_000, seed: int = 0) -> ScenarioConfig:
    """The paper's dataset *S*: fresh, top-20 types, multi-report (§5.3.1)."""
    return ScenarioConfig(
        seed=seed,
        n_samples=n_samples,
        file_types=TOP20_FILE_TYPES,
        fresh_only=True,
        min_reports=2,
    )


def tiny_scenario(n_samples: int = 400, seed: int = 0) -> ScenarioConfig:
    """A small, fast scenario for unit tests."""
    return ScenarioConfig(
        seed=seed,
        n_samples=n_samples,
        file_types=TOP20_FILE_TYPES,
        min_reports=2,
        fresh_only=True,
    )


def chaos_scenario(n_samples: int = 400, seed: int = 0) -> ScenarioConfig:
    """The tiny scenario under the standard fault plan.

    Used by the chaos smoke test and the ``repro collect --chaos`` CLI
    path: small enough to run in seconds, faulty enough to exercise the
    whole resilience surface (outage + backfill, transients, duplicates,
    corrupt payloads, store write failures).
    """
    return tiny_scenario(n_samples=n_samples, seed=seed).with_(
        fault_plan=standard_chaos_plan(seed)
    )
