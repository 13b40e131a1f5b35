"""Cavity-mediated quantum battery charging toolkit.

Exact single-excitation dynamics of a qubit charged through a lossy cavity
coupled to a Lorentzian bosonic reservoir: trajectories with their stored
energy and ergotropy, the charging optima of both, BLP backflow and
parameter-sweep utilities.  The spectrum J(w) is documented in ``model``
and never computed.
"""

__version__ = "0.1.0"

from .model import (MEMORYLESS, InitialState, ModelParams,
                    empty_battery_state, excited_battery_state, make_params,
                    make_initial_state)
from .propagator import (ChargingTrajectory, amplitude_grid, kappa_grid,
                         trajectory)
from .oracle import AmplitudeSeries, integrate
from .metrics import (MaximaReport, NonMarkovReport, blp_nonmarkovianity,
                      maximize_over_tau)
from .sweep import SweepResult, SweepSpec, run_sweep

__all__ = [
    "MEMORYLESS", "InitialState", "ModelParams", "empty_battery_state",
    "excited_battery_state", "make_params", "make_initial_state",
    "ChargingTrajectory", "amplitude_grid", "kappa_grid", "trajectory",
    "AmplitudeSeries", "integrate", "MaximaReport", "NonMarkovReport",
    "blp_nonmarkovianity", "maximize_over_tau", "SweepResult", "SweepSpec",
    "run_sweep", "__version__",
]
