"""Deterministic simulator for stateless geocast routing on random unit-disk networks.

The package root holds the library calls the README documents; everything else
is imported from its own module (`geocastsim.engine`, `geocastsim.netgraph`, ...).
"""

from .engine import run
from .experiments import ExperimentConfig, build_nets, gen_scenario
from .netgraph import save_scenario

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "build_nets", "gen_scenario", "run", "save_scenario"]
