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
from .liouvillian import LiouvillianSet, build_for, build_stack, hermitian_reconstruct
from .params import SystemParams, delta_from_delta1

# Grid points per stacked solve.  One block's matrices take about 0.5 MB
# (15x15); stacking a whole grid at once would grow the working set with it.
_BLOCK = 128


@dataclass(frozen=True)
class SpectrumPoint:
    delta1: float
    chi: complex
    slope: float


def steady_state(liouv: LiouvillianSet) -> np.ndarray:
    """Pump-only steady state R0 (probe switched off): M0 R0 = Sigma.

    A stacked liouv (from build_stack) gives one R0 per parameter set.
    """
    return linalg.solve(liouv.m0, liouv.sigma)


def _blocks(values) -> list:
    """A 1-d grid cut into consecutive blocks of at most _BLOCK points."""
    values = np.asarray(values, dtype=float)
    return [values[i:i + _BLOCK] for i in range(0, len(values), _BLOCK)]


def _harmonic(liouv: LiouvillianSet, r0: np.ndarray, delta) -> tuple:
    """Rp and dRp/d delta of a generator (or a stack) with steady state r0.

    With A = M0 + i delta and b = Sigma_+ - M_+ R0, Rp = A^-1 b and,
    since dA^-1/d delta = -i A^-2, dRp/d delta = -i A^-1 Rp exactly.
    delta is a scalar or an array broadcast against the stack of M0.
    """
    b = liouv.sigma1 - (liouv.m1 @ r0[..., None])[..., 0]
    a = liouv.m0 + (1j * np.asarray(delta, dtype=float))[..., None, None] * np.eye(liouv.dim)
    r_plus = linalg.solve(a, b)
    return r_plus, -1j * linalg.solve(a, r_plus)


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
        self._i13 = self.liouv.index("13")

    def harmonic(self, delta) -> tuple[np.ndarray, np.ndarray]:
        """First-order harmonic Rp at beat detuning delta, and dRp/d delta.

        delta is a scalar, or an array whose shape leads the returned
        stacks; all its detunings are solved in one stacked call.
        """
        return _harmonic(self.liouv, self.r0, delta)

    def _response(self, delta1):
        """Susceptibility and dispersion slope d Re(chi)/d Delta1 at delta1 (scalar or array)."""
        delta = delta_from_delta1(np.asarray(delta1, dtype=float),
                                  self.params.Delta2, self.params.W12)
        r_plus, d_r_plus = self.harmonic(delta)
        gamma2 = self.params.gamma2
        # d delta / d Delta1 = 1, so the delta-derivative is the slope.
        return gamma2 * r_plus[..., self._i13], gamma2 * d_r_plus[..., self._i13].real

    def point(self, delta1: float) -> SpectrumPoint:
        """Susceptibility and dispersion slope at one detuning."""
        chi, slope = self._response(delta1)
        return SpectrumPoint(float(delta1), complex(chi), float(slope))


def susceptibility(params: SystemParams, delta1: float) -> complex:
    return ProbeResponse(params).point(delta1).chi


def dispersion_slope(params: SystemParams, delta1: float) -> float:
    return ProbeResponse(params).point(delta1).slope


def group_velocity_ratio(slope_normalized: float, K: float) -> float:
    """c/vg = 1 + K * slope; > 1 subluminal, < 1 superluminal, < 0 negative vg."""
    return 1.0 + K * slope_normalized


def probe_spectrum(params: SystemParams, delta1_values) -> list[SpectrumPoint]:
    """Susceptibility and dispersion slope over a detuning grid, one block per stacked solve."""
    resp = ProbeResponse(params)
    out = []
    for block in _blocks(delta1_values):
        chi, slope = resp._response(block)
        out += map(SpectrumPoint, block.tolist(), chi.tolist(), slope.tolist())
    return out


def interference_sweep(params: SystemParams, p_grid) -> list[tuple[float, float]]:
    """Dispersion slope at line centre versus interference strength p = cos(theta)."""
    delta = delta_from_delta1(0.0, params.Delta2, params.W12)
    out = []
    for block in _blocks(p_grid):
        stack = []
        for p in block:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"interference parameter p must lie in [0, 1], got {p}")
            stack.append(params.with_(theta_deg=float(np.degrees(np.arccos(p)))))
        liouv = build_stack(stack)
        _, d_r_plus = _harmonic(liouv, steady_state(liouv), delta)
        slope = params.gamma2 * d_r_plus[:, liouv.index("13")].real
        out += zip(block.tolist(), slope.tolist())
    return out


def pump_sweep(params: SystemParams, delta2_grid) -> np.ndarray:
    """Steady density matrices versus pump detuning at two-photon resonance.

    The probe is off (Omega1 = 0) and Delta3 = -Delta2 is enforced pointwise.
    Returns one reconstructed density matrix per grid point, stacked.
    """
    out = []
    for block in _blocks(delta2_grid):
        liouv = build_stack(params.with_(Omega1=0.0, Delta2=d2, Delta3=-d2)
                            for d2 in block.tolist())
        out.append(hermitian_reconstruct(steady_state(liouv)))
    return np.concatenate(out) if out else np.array([])
