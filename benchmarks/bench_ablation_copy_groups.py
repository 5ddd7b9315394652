"""Ablation: label copying vs detected engine correlation (§7.2).

The design claims the strong-correlation graph (Figure 11) is produced by
the copy-group mechanism, not by coincidental agreement between capable
engines.  Running the identical scenario against a fleet with all copy
rules stripped should collapse the strong pairs.
"""

from __future__ import annotations

from repro.analysis.engines import engine_correlation
from repro.analysis.experiment import run_experiment
from repro.synth.scenario import dynamics_scenario
from repro.vt.engines import default_fleet

from conftest import run_once, say

SAMPLES = 3_000
PAIRS = (("Avast", "AVG"), ("Paloalto", "APEX"),
         ("BitDefender", "FireEye"))


def _strong_pairs(copy_rules: bool):
    config = dynamics_scenario(SAMPLES, seed=55)
    fleet = default_fleet(config.seed, copy_rules=copy_rules)
    data = run_experiment(config, fleet=fleet)
    return engine_correlation(data.store, data.engine_names,
                              file_types=()).overall


def test_ablation_copy_groups(benchmark):
    with_copying = run_once(benchmark, lambda: _strong_pairs(True))
    without_copying = _strong_pairs(False)

    say()
    say("Ablation: copy groups vs detected strong correlations")
    say(f"  strong pairs with copying   : "
          f"{len(with_copying.strong_pairs())}")
    say(f"  strong pairs without copying: "
          f"{len(without_copying.strong_pairs())}")
    for a, b in PAIRS:
        say(f"  rho({a}, {b}): {with_copying.rho_of(a, b):.3f} -> "
              f"{without_copying.rho_of(a, b):.3f}")

    assert (len(without_copying.strong_pairs())
            < len(with_copying.strong_pairs()) / 2)
    for a, b in PAIRS:
        assert with_copying.rho_of(a, b) > 0.8
        assert without_copying.rho_of(a, b) < 0.8
