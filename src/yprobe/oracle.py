"""Brute-force time integration of the full master equation.

Independent cross-check for the linear-response path: the generator with
its explicit probe phase factors is stepped with a fixed-step classical
4th-order method, and the probe-locked harmonic of rho13 is extracted by
demodulation over the periodic steady regime.  Nothing here shares code
with the Floquet solves beyond the generator matrices themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouvillian import LiouvillianSet
from .params import SystemParams

STABILITY_FACTOR = 0.02


class IntegrationError(RuntimeError):
    """Step-size violation or numerical blow-up during integration."""


def max_stable_dt(liouv: LiouvillianSet, omega1: float) -> float:
    scale = (np.abs(liouv.m0).max()
             + omega1 * (np.abs(liouv.m1).max() + np.abs(liouv.m_minus1).max()))
    return STABILITY_FACTOR / scale


@dataclass
class TrajectoryConfig:
    """Time span, step and initial condition for one trajectory.

    Times are in units of 1/gamma2.  demod_delta is the probe-pump
    detuning driving the harmonic phase factors (and later demodulation);
    store_every thins the stored samples without affecting the stepping.
    initial=None starts from the zero vector of the generator's dimension,
    i.e. all population in the eliminated ground state.
    """

    t_max: float
    dt: float
    initial: np.ndarray | None = None
    demod_delta: float = 0.0
    store_every: int = 1


def integrate_full(liouv: LiouvillianSet, params: SystemParams,
                   config: TrajectoryConfig):
    """Integrate d/dt R = M(t) R - Sigma(t) with the probe phases explicit.

    Returns (times, states); states has one stacked element vector per
    stored sample.  Raises IntegrationError on an unstable step size or a
    non-finite state.
    """
    dt = config.dt
    if dt <= 0:
        raise IntegrationError(f"dt must be positive, got {dt}")
    dt_max = max_stable_dt(liouv, params.Omega1)
    if dt > dt_max:
        raise IntegrationError(
            f"dt = {dt} exceeds the stability bound {dt_max:.3e} for this generator"
        )
    if config.initial is None:
        r = np.zeros(liouv.dim, dtype=complex)
    else:
        r = np.asarray(config.initial, dtype=complex)
    if r.shape != (liouv.dim,):
        raise ValueError(f"initial state must have {liouv.dim} components, got {r.shape}")

    omega1, phi, delta = params.Omega1, params.Phi, config.demod_delta
    n_steps = int(round(config.t_max / dt))
    times = [0.0]
    states = [r.copy()]

    if omega1 == 0.0:
        # Probe off: the generator is constant, so the classical 4th-order
        # step reduces to a fixed affine map r -> A r + b, precomputed once.
        # A = sum_{j<=4} (dt M)^j / j!,  b = -dt sum_{j<=3} (dt M)^j/(j+1)! Sigma.
        dtm = dt * liouv.m0
        eye = np.eye(liouv.dim)
        a = eye.astype(complex)
        phi_m = eye.astype(complex)
        power = eye.astype(complex)
        fact = 1.0
        for j in range(1, 5):
            power = power @ dtm
            fact *= j
            a = a + power / fact
            if j < 4:
                phi_m = phi_m + power / (fact * (j + 1))
        b = -dt * (phi_m @ liouv.sigma)
        for k in range(n_steps):
            r = a @ r + b
            if (k + 1) % config.store_every == 0 or k == n_steps - 1:
                if not np.all(np.isfinite(r.view(float))):
                    raise IntegrationError(
                        f"non-finite state at t = {(k + 1) * dt:.4g}; aborting"
                    )
                times.append((k + 1) * dt)
                states.append(r.copy())
        return np.array(times), np.array(states)

    m0, m1, mm1 = liouv.m0, liouv.m1, liouv.m_minus1
    s0, s1, sm1 = liouv.sigma, liouv.sigma1, liouv.sigma_minus1

    def rhs(t, state):
        e_minus = np.exp(-1j * (delta * t - phi))
        return (m0 @ state - s0
                + (omega1 * e_minus) * (m1 @ state - s1)
                + (omega1 / e_minus) * (mm1 @ state - sm1))

    t = 0.0
    for k in range(n_steps):
        k1 = rhs(t, r)
        k2 = rhs(t + 0.5 * dt, r + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, r + 0.5 * dt * k2)
        k4 = rhs(t + dt, r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (k + 1) * dt
        if (k + 1) % config.store_every == 0 or k == n_steps - 1:
            if not np.all(np.isfinite(r.view(float))):
                raise IntegrationError(f"non-finite state at t = {t:.4g}; aborting")
            times.append(t)
            states.append(r.copy())
    return np.array(times), np.array(states)


def steady_state_by_integration(liouv: LiouvillianSet, params: SystemParams,
                                t_max: float, dt: float | None = None) -> np.ndarray:
    """Long-time limit of the pump-only dynamics (probe off)."""
    p0 = params.with_(Omega1=0.0)
    if dt is None:
        dt = 0.9 * max_stable_dt(liouv, 0.0)
    config = TrajectoryConfig(t_max=t_max, dt=dt, store_every=10 ** 9)
    _, states = integrate_full(liouv, p0, config)
    return states[-1]


def demodulate(times, rho13, delta: float, phi: float, omega1: float,
               window: float, r0_13: complex | None = None) -> complex:
    """Probe-locked harmonic amplitude of rho13 per unit Omega1.

    Trapezoidal average of rho13(t) exp(+i(delta t - phi)) over the last
    `window` of the series (snapped down to whole probe periods), divided
    by omega1; the counter-rotating and static components integrate out.
    For delta = 0 the DC deviation (rho13 - r0_13) / omega1 is returned.
    """
    times = np.asarray(times, dtype=float)
    rho13 = np.asarray(rho13, dtype=complex)
    if omega1 == 0.0:
        return 0.0 + 0.0j

    if delta == 0.0:
        if r0_13 is None:
            raise ValueError("r0_13 is required for DC demodulation")
        return (rho13[-1] - r0_13) / omega1

    period = 2.0 * math.pi / abs(delta)
    if window < period:
        raise ValueError(
            f"window {window} is shorter than one probe period {period:.4g}"
        )
    span = math.floor(window / period) * period
    t_end = times[-1]
    mask = times >= t_end - span - 1e-12
    t = times[mask]
    y = rho13[mask]
    # The static part of rho13 dwarfs the probe harmonic by ~1/Omega1;
    # remove it first so window-misalignment leakage stays negligible.
    dc = np.trapezoid(y, t) / (t[-1] - t[0])
    y = (y - dc) * np.exp(1j * (delta * t - phi))
    return np.trapezoid(y, t) / (t[-1] - t[0]) / omega1
