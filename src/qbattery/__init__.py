"""Cavity-mediated quantum battery charging toolkit.

Exact single-excitation dynamics of a qubit charged through a lossy cavity
coupled to a Lorentzian bosonic reservoir, with stored energy, ergotropy,
BLP backflow and parameter-sweep utilities.
"""

__version__ = "0.1.0"

from .model import (MEMORYLESS, InitialState, ModelParams,
                    empty_battery_state, excited_battery_state, make_params,
                    make_initial_state, spectral_density_at)
from .propagator import (ChargingTrajectory, PropagatorRoots, amplitudes_at,
                         kappa_at, solve_roots, trajectory)
from .oracle import AmplitudeSeries, integrate, integrate_memoryless
from .metrics import (MaximaReport, NonMarkovReport, blp_nonmarkovianity,
                      ergotropy_general, ergotropy_qubit, maximize_over_tau,
                      stored_energy)
from .sweep import SweepResult, SweepSpec, run_sweep

__all__ = [
    "MEMORYLESS", "InitialState", "ModelParams", "empty_battery_state",
    "excited_battery_state", "make_params", "make_initial_state",
    "spectral_density_at", "ChargingTrajectory", "PropagatorRoots",
    "amplitudes_at", "kappa_at", "solve_roots", "trajectory",
    "AmplitudeSeries", "integrate", "integrate_memoryless",
    "MaximaReport", "NonMarkovReport", "blp_nonmarkovianity",
    "ergotropy_general", "ergotropy_qubit", "maximize_over_tau",
    "stored_energy", "SweepResult", "SweepSpec", "run_sweep", "__version__",
]
