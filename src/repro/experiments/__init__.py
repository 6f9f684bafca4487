"""Experiment harness: regenerates every table and figure of the paper."""

from repro.experiments.ablation import (
    AblationPoint,
    mix_split_ablation,
    visibility_ablation,
)
from repro.experiments.economics import (
    EconomicResults,
    QueryScenarioCost,
    run_economics,
)
from repro.experiments.running_example import (
    RunningExampleResults,
    run_running_example,
)

__all__ = [
    "AblationPoint", "EconomicResults", "QueryScenarioCost",
    "RunningExampleResults",
    "mix_split_ablation", "run_economics", "run_running_example",
    "visibility_ablation",
]
