#!/usr/bin/env python3
"""Data-driven engine selection (§7 + §8 recommendations).

The paper urges users to weight engines by measured reliability and to
treat correlated engines as a single opinion.  This example scores the
whole fleet from scan data, derives a trusted engine set, and compares
three labelling strategies against the simulator's hidden ground truth:

* naive threshold voting over all 70 engines;
* voting restricted to the reliability-selected trusted set;
* correlation-deduplicated weighted voting.

Run:  python examples/engine_selection.py
"""

from repro import dynamics_scenario, run_experiment
from repro.analysis.engines import engine_correlation, engine_stability
from repro.analysis.rendering import ascii_table, pct
from repro.core.aggregation import (
    ThresholdAggregator,
    TrustedEnginesAggregator,
    WeightedVoteAggregator,
)
from repro.core.reliability import score_engines, select_trusted

data = run_experiment(dynamics_scenario(n_samples=4_000, seed=17))

# ---------------------------------------------------------------------------
# 1. Score the fleet.
# ---------------------------------------------------------------------------
stability = engine_stability(data.store, data.engine_names, data.dataset_s)
correlation = engine_correlation(data.store, data.engine_names,
                                 file_types=())
scores = score_engines(data.store.iter_reports(), stability.flips,
                       correlation.overall)

ranked = sorted(scores, key=lambda s: s.composite(), reverse=True)
rows = [
    (s.engine, f"{s.flip_ratio:.2%}", f"{s.availability:.1%}",
     f"{s.coverage:.1%}", s.group_size, f"{s.composite():.3f}")
    for s in ranked[:12]
]
print(ascii_table(
    ["engine", "flip ratio", "availability", "coverage", "group",
     "composite"],
    rows,
))

trusted = select_trusted(scores, count=10)
print(f"\ntrusted set (one engine per correlation group first): "
      f"{', '.join(trusted)}")

# ---------------------------------------------------------------------------
# 2. Compare strategies against hidden ground truth.
# ---------------------------------------------------------------------------
naive = ThresholdAggregator(threshold=5)
trusted_vote = TrustedEnginesAggregator(trusted, data.engine_names,
                                        threshold=2)
dedup_vote = WeightedVoteAggregator.from_correlation_groups(
    correlation.overall.groups(), data.engine_names, threshold=5.0
)

strategies = {"naive t>=5": naive, "trusted 2/10": trusted_vote,
              "dedup w>=5": dedup_vote}
confusion = {name: [0, 0, 0, 0] for name in strategies}  # TP FP FN TN

for sha, reports in data.store.iter_sample_reports():
    truth = data.service.get_sample(sha).malicious
    final = reports[-1]
    for name, strategy in strategies.items():
        verdict = strategy.is_malicious(final)
        cell = (0 if truth and verdict else
                1 if not truth and verdict else
                2 if truth else 3)
        confusion[name][cell] += 1

print()
rows = []
for name, (tp, fp, fn, tn) in confusion.items():
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    rows.append((name, pct(precision), pct(recall), f"{f1:.3f}"))
print(ascii_table(["strategy", "precision", "recall", "F1"], rows))

print("\nNote: 'ground truth' here is the simulator's latent label —"
      "\nthe comparison shows how the strategies trade precision for"
      "\nrecall, not absolute real-world accuracy.")
