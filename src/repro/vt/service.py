"""The VirusTotal scanning service simulator.

:class:`VirusTotalService` owns the sample registry and the engine fleet,
and produces :class:`~repro.vt.reports.ScanReport` records.  Its three
entry points implement exactly the paper's Table 1 semantics:

==========  ===================  =====================  ================
operation   last_analysis_date   last_submission_date   times_submitted
==========  ===================  =====================  ================
upload      update               update                 increment
rescan      update               unchanged              unchanged
report      unchanged            unchanged              unchanged
==========  ===================  =====================  ================

Every *analysis* (upload or rescan) fans the sample out to all 70 engines:
each engine either times out (probability ``1 - activity``, reported as
*undetected*) or answers with its current verdict from the sample's
:class:`~repro.vt.behavior.DetectionPlan`.  The ``positives`` count over
responding engines is the paper's AV-Rank.

Listeners (e.g. the premium feed) receive every newly generated report.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import NotFoundError
from repro.obs import NULL_REGISTRY
from repro.vt.behavior import BehaviorContext, BehaviorParams, build_plan
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.reports import ScanReport
from repro.vt.samples import Sample, validate_sha256

ReportListener = Callable[[ScanReport], None]

#: ``bytes(active).translate`` table: active (1) -> benign label 0,
#: timed out (0) -> undetected label 2.
_ACTIVE_TO_LABEL = bytes([2, 0]) + bytes(254)

#: Fixed bucket edges for the per-report positives (AV-Rank) histogram.
POSITIVES_EDGES: tuple[int, ...] = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 70)

#: Fixed bucket edges (simulator minutes) for the interval between
#: consecutive analyses of one sample — the paper's rescan-latency axis.
RESCAN_INTERVAL_EDGES: tuple[int, ...] = (
    60, 6 * 60, MINUTES_PER_DAY, 3 * MINUTES_PER_DAY, 7 * MINUTES_PER_DAY,
    14 * MINUTES_PER_DAY, 30 * MINUTES_PER_DAY, 90 * MINUTES_PER_DAY,
    180 * MINUTES_PER_DAY,
)


class VirusTotalService:
    """An in-process stand-in for the VirusTotal backend."""

    #: How often a copying follower's availability tracks its leader's.
    COPIED_AVAILABILITY_FIDELITY = 0.9

    def __init__(
        self,
        fleet: EngineFleet | None = None,
        params: BehaviorParams | None = None,
        seed: int = 0,
        metrics=None,
    ) -> None:
        self.fleet = fleet if fleet is not None else default_fleet(seed)
        self.params = params if params is not None else BehaviorParams()
        self.seed = seed
        self.ctx = BehaviorContext(self.fleet, self.params, seed)
        self._samples: dict[str, Sample] = {}
        self._last_report: dict[str, ScanReport] = {}
        self._listeners: list[ReportListener] = []
        self.reports_generated = 0
        # Observability: pre-bound handles (no-ops on the null registry).
        # Everything recorded here is per-sample work, so a sharded run's
        # merged registries reproduce a serial run's exactly.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_register = self.metrics.counter("vt.register.total")
        self._m_upload = self.metrics.counter("vt.scan.total", kind="upload")
        self._m_rescan = self.metrics.counter("vt.scan.total", kind="rescan")
        self._m_reports = self.metrics.counter("vt.report.total")
        self._m_positives = self.metrics.histogram(
            "vt.report.positives", edges=POSITIVES_EDGES)
        self._m_interval = self.metrics.histogram(
            "vt.rescan.interval_minutes", edges=RESCAN_INTERVAL_EDGES)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def register(self, sample: Sample) -> None:
        """Make a sample known to the service without submitting it.

        A pre-window sample (negative ``first_seen``) that has never been
        submitted gets its historical submission backfilled here: such a
        file already exists on the service, so its Table 1 fields must
        read as "submitted once, at first_seen".  This used to be every
        runner's job (mutating generator spec objects in place); doing it
        at registration time keeps the adjustment in one place and leaves
        the caller's objects alone when clones are registered.
        """
        if (not sample.fresh and sample.times_submitted == 0
                and sample.last_submission_date is None):
            sample.times_submitted = 1
            sample.last_submission_date = sample.first_seen
        if sample.sha256 not in self._samples:
            self._m_register.inc()
        self._samples[sample.sha256] = sample

    def known(self, sha256: str) -> bool:
        """Whether the service has ever seen this hash."""
        return validate_sha256(sha256) in self._samples

    def get_sample(self, sha256: str) -> Sample:
        """Look up a registered sample, raising NotFoundError otherwise."""
        key = validate_sha256(sha256)
        try:
            return self._samples[key]
        except KeyError:
            raise NotFoundError(key) from None

    def samples(self) -> Iterable[Sample]:
        """All registered samples."""
        return self._samples.values()

    # ------------------------------------------------------------------
    # Listeners (feed integration)
    # ------------------------------------------------------------------

    def add_listener(self, listener: ReportListener) -> None:
        """Subscribe a callable to every newly generated report."""
        self._listeners.append(listener)

    def remove_listener(self, listener: ReportListener) -> None:
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _analyze(self, sample: Sample, timestamp: int) -> ScanReport:
        """Run all engines over a sample and emit a report."""
        if sample.plan is None:
            sample.plan = build_plan(sample, self.ctx)
        plan = sample.plan
        draw = plan.scan_rng.random
        # Per-engine availability; one draw per engine, in fleet order,
        # keeps the sample's random stream aligned across scans.
        active = [draw() < activity for activity in self.fleet.activity]
        # OEM followers share infrastructure with their leader: when the
        # copy rule fired for this sample, the follower's availability
        # tracks the leader's most of the time (see DetectionPlan.copied).
        # One draw per fired rule, in ascending follower index.
        fidelity = self.COPIED_AVAILABILITY_FIDELITY
        for follower, leader in plan.copied.items():
            if draw() < fidelity:
                active[follower] = active[leader]
        # Active engines answer benign (0) unless their timeline says
        # otherwise; timed-out engines report undetected (2).
        labels = bytearray(bytes(active)).translate(_ACTIVE_TO_LABEL)
        total = active.count(True)
        positives = 0
        for idx, timeline in plan.transitions.items():
            if not active[idx]:
                continue
            verdict = 0
            for when, step in timeline:
                if timestamp < when:
                    break
                verdict = step
            if verdict:
                labels[idx] = 1
                positives += 1
        versions = self.fleet.versions_at(timestamp)
        previous_analysis = sample.last_analysis_date
        sample.record_analysis(timestamp)
        report = ScanReport(
            sha256=sample.sha256,
            file_type=sample.file_type,
            scan_time=timestamp,
            positives=positives,
            total=total,
            labels=bytes(labels),
            versions=versions,
            first_submission_date=sample.first_seen,
            last_submission_date=(
                sample.last_submission_date
                if sample.last_submission_date is not None
                else sample.first_seen
            ),
            last_analysis_date=timestamp,
            times_submitted=max(sample.times_submitted, 1),
        )
        self._last_report[sample.sha256] = report
        self.reports_generated += 1
        self._m_reports.inc()
        self._m_positives.observe(positives)
        if previous_analysis is not None:
            self._m_interval.observe(timestamp - previous_analysis)
        self._emit(report)
        return report

    def _emit(self, report: ScanReport) -> None:
        """Fan a freshly generated report out to every listener.

        The delivery interposition point: fault layers that model lossy
        or flaky fan-out (see :mod:`repro.faults`) wrap the consumption
        side of the feed, but a subclass can override this to perturb
        delivery for *all* listeners at once.
        """
        for listener in self._listeners:
            listener(report)

    # ------------------------------------------------------------------
    # Table 1 operations
    # ------------------------------------------------------------------

    def upload(self, sample: Sample | str, timestamp: int) -> ScanReport:
        """Submit a file: registers it if new, updates all three Table 1
        fields, and runs an analysis."""
        if isinstance(sample, str):
            sample = self.get_sample(sample)
        elif sample.sha256 not in self._samples:
            self.register(sample)
        sample.record_submission(timestamp)
        self._m_upload.inc()
        return self._analyze(sample, timestamp)

    def rescan(self, sample: Sample | str, timestamp: int) -> ScanReport:
        """Re-analyse an existing file: only last_analysis_date moves.

        Takes a :class:`Sample` or its hash.  Either way the sample
        registered under that hash is analysed; only a ``str`` is
        validated first, since a ``Sample`` already carries a valid hash.
        """
        self._m_rescan.inc()
        if isinstance(sample, str):
            sample = self.get_sample(sample)
        else:
            try:
                sample = self._samples[sample.sha256]
            except KeyError:
                raise NotFoundError(sample.sha256) from None
        return self._analyze(sample, timestamp)

    def report(self, sha256: str) -> ScanReport:
        """Return the most recent report without generating a new one."""
        sample = self.get_sample(sha256)
        try:
            return self._last_report[sample.sha256]
        except KeyError:
            raise NotFoundError(sample.sha256) from None
