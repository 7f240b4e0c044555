"""Exact solutions of the logistic equation and logistic maps.

Closed-form solutions of the growth ODE dx/dt = r*x*(1-x), the three known
closed forms of the quadratic map x' = r*x*(1-x), and the one-parameter
general solution of the backward-coupled map x'-x = r*x*(1-x'), together
with arbitrary-precision iteration oracles that verify every formula and
measure how fast fixed-precision evaluation drifts off a chaotic orbit.

The submodules mirror that split:

- ``precision``   precision policies, angle reduction, trajectory comparison
- ``continuous``  the ODE's particular/general solutions and an RK4 oracle
- ``map_standard``  the quadratic map, its closed forms, divergence runs, PRNG
- ``map_riccati``   the backward-coupled map and its general solution
- ``cli``         the ``logistic-exact`` command-line front end
"""

from . import cli, continuous, map_riccati, map_standard, precision
from .continuous import ContinuousParams, RiccatiShift
from .errors import DegeneracyError, DomainError, EscapeError, PoleError
from .map_riccati import RiccatiCoefficients, RiccatiMapParams
from .map_standard import ClosedForm, MapParams
from .precision import (
    DOUBLE,
    DivergenceReport,
    PrecisionPolicy,
    Trajectory,
    budgeted_policy,
    compare_trajectories,
    precision_budget,
    reduce_mod_2pi,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedForm",
    "ContinuousParams",
    "DegeneracyError",
    "DivergenceReport",
    "DomainError",
    "DOUBLE",
    "EscapeError",
    "MapParams",
    "PoleError",
    "PrecisionPolicy",
    "RiccatiCoefficients",
    "RiccatiMapParams",
    "RiccatiShift",
    "Trajectory",
    "budgeted_policy",
    "cli",
    "compare_trajectories",
    "continuous",
    "map_riccati",
    "map_standard",
    "precision",
    "precision_budget",
    "reduce_mod_2pi",
]
