"""Exact solutions of the logistic equation and logistic maps.

Closed-form solutions of the growth ODE dx/dt = r*x*(1-x), the three known
closed forms of the quadratic map x' = r*x*(1-x), and the one-parameter
general solution of the backward-coupled map x'-x = r*x*(1-x'), together
with arbitrary-precision iteration oracles that verify every formula and
measure how fast fixed-precision evaluation drifts off a chaotic orbit.  The
second routes that cross-check the formulas (an RK4 integrator, the printed
forms of the ODE's and the coupled map's general solutions, the conjugacy of
each closed form and the phase reference as a trajectory) are test
references, in ``tests/routes.py``.

The submodules mirror that split:

- ``precision``   value types: policies, budget, map parameters, trajectories
- ``continuous``  the ODE's particular/general solutions and their grids
- ``map_standard``  the quadratic map, its closed forms, divergence runs, PRNG
- ``map_riccati``   the backward-coupled map and its general solution
- ``cli``         the ``logistic-exact`` command-line front end

Every name below is loaded on first use, through the module ``__getattr__``
of PEP 562: importing the package loads none of its submodules, and each
name loads the submodule that defines it, with what that submodule imports.
"""

import sys

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "continuous": ("ContinuousParams", "RiccatiShift"),
    "errors": ("DegeneracyError", "DomainError", "EscapeError", "PoleError"),
    "map_riccati": ("RiccatiMapParams",),
    "map_standard": ("ClosedForm", "compare_trajectories", "reduce_mod_2pi"),
    "precision": ("DOUBLE", "DivergenceReport", "MapParams", "PrecisionPolicy", "Trajectory",
                  "budgeted_policy", "precision_budget"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCES, "cli", "continuous", "map_riccati", "map_standard", "precision"]


def _submodule(name):
    """The submodule ``name``, imported by ``__import__`` as an import
    statement imports it, which ``-X importtime`` reports."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    """A submodule, imported, or an exported name from its submodule."""
    if name == "cli" or name in _EXPORTS:
        return _submodule(name)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_SOURCES[name]), name)
    globals()[name] = value  # looked up once
    return value


def __dir__():
    return sorted({*globals(), *__all__})
