"""Brute-force time integration of the full master equation.

Independent cross-check for the linear-response path: the generator with
its explicit probe phase factors is stepped with a fixed-step classical
4th-order method, and the probe-locked harmonic of rho13 is extracted by
demodulation over the periodic steady regime.  A step is a linear map of the
augmented state [R; 1], written once as the four stages from a start phase
z of the probe.  With the probe off it is one constant matrix, whose orbit
at the stored samples is walked by doubling.  With the probe on it is a
Laurent polynomial of degree 4 in z, and a block of b steps (b up to
BLOCK_MAX) one of degree 4b; each is read off its values at the roots of
unity by one discrete Fourier transform.  The block maps are evaluated a
chunk at a time by one GEMM of their exact start phases against the
coefficients, and the walk is one dim x (dim + 1) product per map.  Beyond
the generator matrices nothing here is shared with the Floquet solves: the
one linalg helper it calls, power_orbit, is not on the linear-response path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .liouvillian import LiouvillianSet
from .params import SystemParams

STABILITY_FACTOR = 0.02
# Probe-on block maps evaluated by one GEMM: 256 maps of dim x (dim + 1)
# complex numbers are 0.98 MB for the Y system, whatever the block length.
PHASE_CHUNK = 256
# Longest probe-on block: the largest divisor of store_every up to this.
BLOCK_MAX = 8


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
    store_every thins the stored samples.  With the probe on it also sets
    the block length of the composed steps (its largest divisor up to
    BLOCK_MAX), which changes the states only by rounding.
    initial=None starts from the zero vector of the generator's dimension,
    i.e. all population in the eliminated ground state.
    """

    t_max: float
    dt: float
    initial: np.ndarray | None = None
    demod_delta: float = 0.0
    store_every: int = 1


def _generator(liouv: LiouvillianSet, omega1: float) -> np.ndarray:
    """G-1, G0, G+1 of the generator of x = [R; 1], shape (3, dim + 1, dim + 1).

    dx/dt = (G0 + z G+1 + G-1 / z) x, z = exp(-i(delta t - Phi)); G+-1 carry Omega1.
    """
    dim = liouv.dim
    g = np.zeros((3, dim + 1, dim + 1), dtype=complex)
    for row, m, s, scale in ((0, liouv.m_minus1, liouv.sigma_minus1, omega1),
                             (1, liouv.m0, liouv.sigma, 1.0),
                             (2, liouv.m1, liouv.sigma1, omega1)):
        g[row, :dim, :dim] = scale * m
        g[row, :dim, dim] = -scale * s
    return g


def _departure(g: np.ndarray, z, delta: float, dt: float) -> np.ndarray:
    """S - I of one classical 4th-order step S from each start phase in z.

    The stages sit at z, z w, z w and z w^2 with w = exp(-i delta dt / 2).
    Returns shape np.shape(z) + (dim + 1, dim + 1).
    """
    w = np.exp(-0.5j * delta * dt)
    z = np.asarray(z)[..., None, None]
    eye = np.eye(g.shape[-1])
    g_start, g_mid, g_end = (g[1] + u * g[2] + g[0] / u for u in (z, z * w, z * w * w))
    k1 = g_start
    k2 = g_mid @ (eye + 0.5 * dt * k1)
    k3 = g_mid @ (eye + 0.5 * dt * k2)
    k4 = g_end @ (eye + dt * k3)
    return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _laurent(departure, h: int) -> np.ndarray:
    """Coefficients, z^-h first, of a Laurent polynomial departure(z) of degree h.

    Read off its values at the 2h + 1 roots of unity z_m: the coefficient of
    z^j is the mean of departure(z_m) z_m^-j, a DFT as one matrix product.
    """
    n = 2 * h + 1
    m = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(np.arange(-h, h + 1), m) % n) / n) / n
    return np.tensordot(dft, departure(np.exp(2j * np.pi * m / n)), 1)


def _laurent_orbit(coeffs: np.ndarray, x0: np.ndarray, stored: np.ndarray,
                   delta: float, phi: float, dt: float) -> np.ndarray:
    """States after the step counts in stored, one map of b steps at a time.

    coeffs holds the 8b + 1 Laurent coefficients U_n of the map; x0 is the
    state after stored[0] steps, and stored advances by multiples of b.  The
    map starting at step k is M = sum_n z^n U_n with z = exp(-i(delta k dt - Phi))
    taken from the exact k, so the phase does not drift from map to map.  As
    |z| = 1, z^n U_n + z^-n U_-n = Re z^n (U_n + U_-n) + Im z^n i(U_n - U_-n):
    the maps of a chunk of PHASE_CHUNK are one real GEMM of their
    [1, Re z^n, Im z^n] rows (powers by repeated multiplication) against
    those sums, and the walk is then one dim x (dim + 1) product per map.
    """
    b = (len(coeffs) - 1) // 8
    h, dim = 4 * b, len(x0) - 1
    u = coeffs[:, :dim].reshape(len(coeffs), dim * (dim + 1))
    c = np.concatenate([u[h:h + 1], u[h + 1:] + u[h - 1::-1],
                        1j * (u[h + 1:] - u[h - 1::-1])]).view(float)
    out = np.empty((len(stored), dim + 1), dtype=complex)
    out[0] = x0
    maps = (stored - stored[0]) // b
    mats = np.empty((PHASE_CHUNK, dim, dim + 1), dtype=complex)
    buf = np.ones((PHASE_CHUNK, dim + 1), dtype=complex)   # last column stays 1
    x, pos = x0, 1
    for j0 in range(0, maps[-1], PHASE_CHUNK):
        k = stored[0] + b * np.arange(j0, min(j0 + PHASE_CHUNK, maps[-1]))
        z = np.exp(-1j * (delta * (k * dt) - phi))
        zn = np.cumprod(np.broadcast_to(z[:, None], (len(k), h)), axis=1)
        phases = np.hstack([np.ones((len(k), 1)), zn.real, zn.imag])
        np.matmul(phases, c, out=mats[:len(k)].reshape(len(k), -1).view(float))
        for m, x_next, r_next in zip(mats, buf, buf[:len(k), :dim]):
            np.dot(m, x, out=r_next)
            x = x_next
        end = np.searchsorted(maps, j0 + len(k), side="right")
        out[pos:end] = buf[maps[pos:end] - j0 - 1]
        pos = end
    return out


def _probe_on_orbit(g: np.ndarray, x0: np.ndarray, stored: np.ndarray, every: int,
                    delta: float, phi: float, dt: float) -> np.ndarray:
    """States after the step counts in stored, walked in blocks of b steps.

    b is the largest divisor of every up to BLOCK_MAX, so each stored sample
    but the last ends a block; the fewer than b steps left before the last
    one are single steps.  z advances by v = exp(-i delta dt) per step, so a
    block's value at z is the product of the steps at z v^s, s < b, each
    evaluated from the step's 9 coefficients.  The products are formed on
    the departures from I, D <- A + D + A D with the later step on the left,
    so their rounding is relative to the steps' small parts.
    """
    b = max(d for d in range(1, BLOCK_MAX + 1) if every % d == 0)
    a = _laurent(lambda z: _departure(g, z, delta, dt), 4)

    def block(z):
        d = np.zeros((len(z),) + a.shape[1:], dtype=complex)
        for s in range(b):
            phases = (z * np.exp(-1j * delta * dt * s))[:, None] ** np.arange(-4, 5)
            a_s = np.tensordot(phases, a, 1)
            d += a_s @ d
            d += a_s
        return d

    step, blocks = a.copy(), (_laurent(block, 4 * b) if b > 1 else a.copy())
    step[4] += np.eye(len(x0))
    blocks[4 * b] += np.eye(len(x0))
    n_steps = stored[-1]
    n_main = n_steps - n_steps % b
    if n_main == n_steps:
        return _laurent_orbit(blocks, x0, stored, delta, phi, dt)
    head = stored[:-1]
    walk = head if head[-1] == n_main else np.append(head, n_main)
    states = _laurent_orbit(blocks, x0, walk, delta, phi, dt)
    last = _laurent_orbit(step, states[-1], np.array([n_main, n_steps]), delta, phi, dt)
    return np.vstack([states[:len(head)], last[1:]])


def _check_positive(name: str, value) -> None:
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise IntegrationError(f"{name} must be finite and positive, got {value!r}")


def integrate_full(liouv: LiouvillianSet, params: SystemParams,
                   config: TrajectoryConfig):
    """Integrate d/dt R = M(t) R - Sigma(t) with the probe phases explicit.

    Returns (times, states); states has one stacked element vector per
    stored sample, taken after every store_every steps and after the last
    step.  Raises IntegrationError on an invalid or zero-step span, step,
    store_every or demod_delta, an unstable step size or a non-finite state.
    """
    _check_positive("dt", config.dt)
    _check_positive("t_max", config.t_max)
    delta = config.demod_delta
    if not (isinstance(delta, numbers.Real) and math.isfinite(delta)):
        raise IntegrationError(f"demod_delta must be a finite number, got {delta!r}")
    every = config.store_every
    if not isinstance(every, numbers.Integral) or isinstance(every, bool) or every < 1:
        raise IntegrationError(f"store_every must be an integer >= 1, got {every!r}")
    dt = config.dt
    dt_max = max_stable_dt(liouv, params.Omega1)
    if dt > dt_max:
        raise IntegrationError(
            f"dt = {dt} exceeds the stability bound {dt_max:.3e} for this generator"
        )
    r = np.asarray(np.zeros(liouv.dim) if config.initial is None else config.initial, dtype=complex)
    if r.shape != (liouv.dim,):
        raise ValueError(f"initial state must have {liouv.dim} components, got {r.shape}")

    n_steps = int(round(config.t_max / dt))
    if n_steps == 0:
        raise IntegrationError(f"t_max = {config.t_max} rounds to zero steps of dt = {dt}")
    stored = np.arange(0, n_steps + 1, every)
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    times = stored * dt
    x0 = np.append(r, 1.0)
    g = _generator(liouv, params.Omega1)
    if params.Omega1 == 0.0:
        step = np.eye(liouv.dim + 1) + _departure(g, 1.0, delta, dt)
        states = linalg.power_orbit(step, x0, n_steps, every)
    else:
        states = _probe_on_orbit(g, x0, stored, every, delta, params.Phi, dt)
    finite = np.isfinite(states[1:].view(float)).all(axis=1)
    if not finite.all():
        raise IntegrationError(
            f"non-finite state at t = {times[1 + np.argmin(finite)]:.4g}; aborting")
    return times, np.ascontiguousarray(states[:, :-1])


def steady_state_by_integration(liouv: LiouvillianSet, params: SystemParams,
                                t_max: float) -> np.ndarray:
    """Long-time limit of the pump-only dynamics (probe off)."""
    p0 = params.with_(Omega1=0.0)
    config = TrajectoryConfig(t_max=t_max, dt=0.9 * max_stable_dt(liouv, 0.0),
                              store_every=10 ** 9)
    _, states = integrate_full(liouv, p0, config)
    return states[-1]


def demodulate(times, rho13, delta: float, phi: float, omega1: float,
               window: float) -> complex:
    """Probe-locked harmonic amplitude of rho13 per unit Omega1.

    Trapezoidal average of rho13(t) exp(+i(delta t - phi)) over the last
    `window` of the series (all of a shorter series), snapped down to whole
    probe periods, divided by omega1; the counter-rotating and static
    components integrate out.
    delta must be finite and non-zero: at delta = 0 both probe harmonics
    are static and cannot be told apart.  window must be > 0.  times and
    rho13 must be 1-d series of one length, times non-empty and increasing.
    """
    if not (math.isfinite(delta) and delta != 0.0):
        raise ValueError(f"delta must be finite and non-zero, got {delta!r}")
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window!r}")
    times = np.asarray(times, dtype=float)
    rho13 = np.asarray(rho13, dtype=complex)
    if times.ndim != 1 or times.shape != rho13.shape:
        raise ValueError(f"times {times.shape} and rho13 {rho13.shape} must be 1-d of one length")
    if times.size == 0 or not (np.diff(times) > 0).all():
        raise ValueError("times must be non-empty and increase from each sample to the next")
    if omega1 == 0.0:
        return 0.0 + 0.0j

    period = 2.0 * math.pi / abs(delta)
    t_end = times[-1]
    span = math.floor(min(window, t_end - times[0]) / period) * period
    if span == 0.0:
        raise ValueError(f"window {window} over a series of {t_end - times[0]:.4g} is "
                         f"shorter than one probe period {period:.4g}")
    mask = times >= t_end - span - 1e-12
    t = times[mask]
    y = rho13[mask]
    # The static part of rho13 dwarfs the probe harmonic by ~1/Omega1;
    # remove it first so window-misalignment leakage stays negligible.
    dc = np.trapezoid(y, t) / (t[-1] - t[0])
    y = (y - dc) * np.exp(1j * (delta * t - phi))
    return np.trapezoid(y, t) / (t[-1] - t[0]) / omega1
