"""The repo lints itself: tier-1 runs reprolint over ``src/repro``.

This is the static twin of the serial/parallel digest gate — the
determinism contract is enforced on the *source*, not just observed in
the outputs.  Three assertions:

1. Zero undisabled findings over the shipped package — including the
   whole-program RPL1xx flow rules — with an *empty* checked-in
   baseline (``lint-baseline.json``): no ratcheted debt.
2. Every suppression is accounted: only the sanctioned codes, only in
   the sanctioned files, and every pragma carries a justification
   (a justification-less pragma would surface as an RPL000 finding and
   fail assertion 1).
3. The JSON report is byte-deterministic across consecutive runs, the
   same bar :mod:`repro.obs.export` holds metric exports to.

A whole-program pass over the package takes seconds, so one
session-scoped pass feeds every assertion; only the determinism check
runs a second, fresh pass to compare against.
"""

import copy
from pathlib import Path

import pytest

from repro.lint import (
    ALL_CODES,
    FLOW_CODES,
    RULE_SUMMARIES,
    apply_baseline,
    default_target,
    lint_paths,
    read_baseline,
    render_json,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def package_lint():
    """One full whole-program pass over ``src/repro``; treat as read-only."""
    return lint_paths([default_target()])


def test_package_is_lint_clean(package_lint):
    result = package_lint
    assert result.files_checked > 50, "self-check must see the whole package"
    pretty = render_text(result)
    assert result.findings == [], (
        "reprolint found undisabled determinism-contract violations in "
        f"src/repro — fix them or add a justified pragma:\n{pretty}"
    )


def test_shipped_baseline_is_empty_and_not_stale(package_lint):
    # The shrink-only ratchet, fully ratcheted: the checked-in baseline
    # holds zero accepted findings, and applying it changes nothing.
    baseline_path = REPO_ROOT / "lint-baseline.json"
    entries = read_baseline(baseline_path)
    assert entries == [], (
        "lint-baseline.json must stay empty — fix findings instead of "
        "baselining them"
    )
    # apply_baseline mutates its argument; keep the shared pass intact.
    result = apply_baseline(copy.deepcopy(package_lint), entries)
    assert result.findings == []
    assert result.baselined == []
    assert result.baseline_stale == []


def test_suppressions_are_rare_and_accounted(package_lint):
    # Pragmas are an escape hatch, not a lifestyle: the sanctioned
    # suppressions are the CLI's display-only elapsed-time banners
    # (RPL001) and the chaos layer's bounded endpoint-name label
    # (RPL105).  If this ceiling is hit, audit before raising it.
    result = package_lint
    assert 0 < len(result.suppressed) <= 10
    allowed = {"RPL001"} | (FLOW_CODES & {"RPL105"})
    assert {f.code for f in result.suppressed} <= allowed
    allowed_paths = {"repro/cli.py", "repro/faults/chaos.py"}
    assert {f.path for f in result.suppressed} <= allowed_paths
    # Flow-family suppressions specifically stay rare: the RPL1xx rules
    # are young enough that every carve-out should be structural
    # (config policy) rather than inline.
    flow_suppressed = [f for f in result.suppressed if f.code in FLOW_CODES]
    assert len(flow_suppressed) <= 2


def test_json_report_is_byte_deterministic(package_lint):
    first = render_json(package_lint)
    second = render_json(lint_paths([default_target()]))
    assert first.encode("utf-8") == second.encode("utf-8")
    head = first.splitlines()[0]
    assert '"schema":"reprolint/2"' in head
    assert '"files_reanalyzed"' in head


def test_every_rule_has_a_summary():
    assert ALL_CODES == frozenset(RULE_SUMMARIES)
    expected = [f"RPL00{i}" for i in range(8)]
    expected += [f"RPL10{i}" for i in range(1, 6)]
    assert sorted(ALL_CODES) == expected
    assert FLOW_CODES < ALL_CODES
