"""Weak-probe linear response: steady states, susceptibility, dispersion sweeps.

The periodically driven solution is expanded into probe harmonics,

    R(t) = R0 + Omega1 * Rp * exp(-i(delta t - Phi))
              + Omega1 * Rm * exp(+i(delta t - Phi)) + O(Omega1^2),

and truncated at first order in the probe.  The probe susceptibility is
gamma2 times the rho13 component of Rp; Rm never enters it and is not
computed.  All spectra are reported against the probe detuning
Delta1 = Delta2 + delta - W12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .liouvillian import LiouvillianSet, build_for, hermitian_reconstruct
from .params import SystemParams, delta_from_delta1


@dataclass(frozen=True)
class SpectrumPoint:
    delta1: float
    chi: complex
    slope: float


def steady_state(liouv: LiouvillianSet) -> np.ndarray:
    """Pump-only steady state R0 (probe switched off): M0 R0 = Sigma."""
    return linalg.solve(liouv.m0, liouv.sigma)


class ProbeResponse:
    """The linear-response core: one generator and steady state per parameter set.

    Every susceptibility, dispersion slope and spectrum is read from
    :meth:`harmonic`, so the generator is built and R0 solved once however
    many detunings are asked for.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.liouv = build_for(params)
        self.r0 = steady_state(self.liouv)
        self._b = self.liouv.sigma1 - self.liouv.m1 @ self.r0
        self._i13 = self.liouv.index("13")
        self._eye = np.eye(self.liouv.dim)

    def harmonic(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """First-order harmonic Rp at beat detuning delta, and dRp/d delta.

        With A = M0 + i delta and b = Sigma_+ - M_+ R0, Rp = A^-1 b and,
        since dA^-1/d delta = -i A^-2, dRp/d delta = -i A^-1 Rp exactly.
        """
        a = self.liouv.m0 + 1j * delta * self._eye
        r_plus = linalg.solve(a, self._b)
        return r_plus, -1j * linalg.solve(a, r_plus)

    def point(self, delta1: float) -> SpectrumPoint:
        """Susceptibility and dispersion slope d Re(chi)/d Delta1 at delta1."""
        delta = delta_from_delta1(delta1, self.params.Delta2, self.params.W12)
        r_plus, d_r_plus = self.harmonic(delta)
        gamma2 = self.params.gamma2
        # d delta / d Delta1 = 1, so the delta-derivative is the slope.
        return SpectrumPoint(float(delta1), complex(gamma2 * r_plus[self._i13]),
                             float(gamma2 * d_r_plus[self._i13].real))


def susceptibility(params: SystemParams, delta1: float) -> complex:
    return ProbeResponse(params).point(delta1).chi


def dispersion_slope(params: SystemParams, delta1: float) -> float:
    return ProbeResponse(params).point(delta1).slope


def group_velocity_ratio(slope_normalized: float, K: float) -> float:
    """c/vg = 1 + K * slope; > 1 subluminal, < 1 superluminal, < 0 negative vg."""
    return 1.0 + K * slope_normalized


def probe_spectrum(params: SystemParams, delta1_values) -> list[SpectrumPoint]:
    """Susceptibility and dispersion slope over a detuning grid."""
    resp = ProbeResponse(params)
    return [resp.point(d1) for d1 in np.asarray(delta1_values, dtype=float)]


def interference_sweep(params: SystemParams, p_grid) -> list[tuple[float, float]]:
    """Dispersion slope at line centre versus interference strength p = cos(theta)."""
    out = []
    for p in np.asarray(p_grid, dtype=float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"interference parameter p must lie in [0, 1], got {p}")
        theta = float(np.degrees(np.arccos(p)))
        out.append((float(p), dispersion_slope(params.with_(theta_deg=theta), 0.0)))
    return out


def pump_sweep(params: SystemParams, delta2_grid) -> np.ndarray:
    """Steady density matrices versus pump detuning at two-photon resonance.

    The probe is off (Omega1 = 0) and Delta3 = -Delta2 is enforced pointwise.
    Returns one reconstructed density matrix per grid point, stacked.
    """
    out = []
    for d2 in np.asarray(delta2_grid, dtype=float):
        p = params.with_(Omega1=0.0, Delta2=float(d2), Delta3=float(-d2))
        out.append(hermitian_reconstruct(steady_state(build_for(p))))
    return np.array(out)
