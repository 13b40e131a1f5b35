"""Physical parameter set and initial states.

Conventions used throughout the package:

* ``omega0`` is the qubit transition frequency and the overall energy scale;
  energies are reported in units of ``omega0`` when ``omega0 = 1`` (default).
* The cavity is resonant with the qubit (``omega_c = omega0``); there is no
  detuning parameter.
* ``spectral_width = math.inf`` selects the memoryless (flat-spectrum) limit.
  It is a distinguished parameter value, not a separate type, so every
  downstream operation works uniformly in both regimes.
* The Lorentzian coupling spectrum is J(w) = (gamma/2pi) * width^2 /
  ((omega0 - w)^2 + width^2): ``spectral_width`` is the half-width and
  ``gamma`` the overall coupling weight.  All dynamics are driven by the
  equivalent exponential memory kernel (gamma*width/2) * exp(-width*|t-t'|);
  J is documented here and never computed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

MEMORYLESS = math.inf
"""Sentinel for ``spectral_width`` selecting the flat-spectrum limit."""


@dataclass(frozen=True)
class ModelParams:
    """Immutable physical parameters of one charging scenario.

    Attributes
    ----------
    omega0 : qubit transition frequency (energy scale).
    coupling_qb_cavity : qubit-cavity coupling strength Omega.
    coupling_cavity_env : effective cavity-environment coupling gamma.
    spectral_width : Lorentzian half-width lambda; ``math.inf`` selects the
        memoryless limit.
    """

    omega0: float
    coupling_qb_cavity: float
    coupling_cavity_env: float
    spectral_width: float

    @property
    def memoryless(self) -> bool:
        return math.isinf(self.spectral_width)


@dataclass(frozen=True)
class InitialState:
    """Single-excitation initial amplitudes.

    ``c1_0`` multiplies |g_B, 1_c> (excitation in the cavity) and ``c2_0``
    multiplies |e_B, 0_c> (excitation in the battery qubit).
    """

    c1_0: complex
    c2_0: complex


def make_params(omega0: float, Omega: float, gamma: float,
                lam: float) -> ModelParams:
    """Validate and build a :class:`ModelParams`.

    ``lam`` may be ``math.inf`` (or :data:`MEMORYLESS`) to select the
    memoryless engine.  Raises ``ValueError`` on non-positive ``omega0`` or
    ``Omega``, negative ``gamma``, or non-positive finite ``lam``.  The
    propagator works on gamma/Omega and lam/Omega, so a subnormal ``Omega``
    (which would round those ratios) and an overflowing gamma/Omega are
    refused too; a lam/Omega that overflows is the memoryless limit to
    double precision and is accepted.
    """
    if not (math.isfinite(omega0) and omega0 > 0):
        raise ValueError(f"omega0 must be finite and positive, got {omega0}")
    if not (math.isfinite(Omega) and Omega > 0):
        raise ValueError(f"Omega must be finite and positive, got {Omega}")
    if Omega < sys.float_info.min:
        raise ValueError(f"Omega must be a normal float (at least "
                         f"{sys.float_info.min}), got {Omega}")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    if not math.isfinite(gamma / Omega):
        raise ValueError(f"gamma/Omega overflows: gamma = {gamma}, "
                         f"Omega = {Omega}")
    if math.isnan(lam) or lam <= 0:
        raise ValueError(f"lambda must be positive or inf, got {lam}")
    return ModelParams(float(omega0), float(Omega), float(gamma), float(lam))


def make_initial_state(c1_0: complex, c2_0: complex) -> InitialState:
    """Validate normalization |c1|^2 + |c2|^2 = 1 (tolerance 1e-12)."""
    norm = abs(c1_0) ** 2 + abs(c2_0) ** 2
    if not abs(norm - 1.0) <= 1e-12:  # NaN included
        raise ValueError(f"initial state not normalized: |c1|^2+|c2|^2 = {norm}")
    return InitialState(complex(c1_0), complex(c2_0))


def empty_battery_state() -> InitialState:
    """Initially empty battery: the single excitation starts in the cavity."""
    return InitialState(1.0 + 0.0j, 0.0 + 0.0j)


def excited_battery_state() -> InitialState:
    """Excitation starts in the battery qubit (used by the BLP state pair)."""
    return InitialState(0.0 + 0.0j, 1.0 + 0.0j)
