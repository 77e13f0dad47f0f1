"""Exact binary-lattice laboratory for optimal control of forward-backward
stochastic Volterra integral equations: state solvers, the first-order
adjoint system, the Hamiltonian gradient, adjacent-cone analysis, and
exact duality verification."""

from .lattice import AdaptedProcess, TimeGrid, Tree, TwoParamProcess
from .scenario import ControlConstraint, Scenario, ScenarioError, load_scenario

__all__ = [
    "AdaptedProcess", "ControlConstraint", "Scenario", "ScenarioError",
    "TimeGrid", "Tree", "TwoParamProcess", "load_scenario",
]
