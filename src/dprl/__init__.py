"""Safe offline policy improvement with count-gated decision points.

The package trains policies that only act where the logged data gives
enough evidence, deferring to the data-collecting policy everywhere
else, and pairs them with high-confidence lower bounds on the loss that
deferral can incur.  Each name has one import path, its module:
``from dprl.<module> import <name>``.
"""

from . import (balltree, baselines, bounds, continuous, discrete, envs, estimation,
               evaluation, mdp, solvers)

__version__ = "0.1.0"
