"""Dressed states of the pump-driven manifold and secular rate dynamics.

At zero pump detunings the pump block of the Hamiltonian has eigenstates
|d> (eigenvalue 0) and |+/-> (eigenvalues +/- sqrt(Omega2^2 + Omega3^2))
spanning the bare states |2>, |3>, |4>.  Under the degeneracy lock
Omega2 = Omega3 and W12 = -sqrt(Omega2^2 + Omega3^2), the excited state
|1> is degenerate with |->, and in the high-field limit the populations
plus the real |1>-|-> coherence close on themselves (secular
approximation), with transfer rates transcribed in gamma_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .params import ParameterError, SystemKind, SystemParams

# Dressed decomposition (rho11, rho_pp, rho_mm, rho_dd, rho_1m) of the bare
# initial state rho33 = 1: <d|3> = 0 and |<+/-|3>|^2 = 1/2 for every pump
# strength, so it is exact and parameter-free.
MIDDLE_STATE = (0.0, 0.5, 0.5, 0.0, 0.0)

# Relative tolerance of the degeneracy lock checks.
_LOCK_RTOL = 1e-9


@dataclass(frozen=True)
class DressedState:
    """Label ("d", "+" or "-"), eigenvalue and amplitudes over (|2>, |3>, |4>)."""

    label: str
    eigenvalue: float
    amplitudes: tuple


def dressed_states(Omega2: float, Omega3: float):
    """The zero-eigenvalue state |d> and the split pair |+/->.

    |d>   = (Omega3 |2> - Omega2 |4>) / sqrt(Omega2^2 + Omega3^2)
    |+/-> = (Omega2 |2> - lam |3> + Omega3 |4>) / sqrt(Omega2^2 + lam^2 + Omega3^2),
    lam = +/- sqrt(Omega2^2 + Omega3^2).
    """
    s = Omega2 ** 2 + Omega3 ** 2
    if s <= 0:
        raise ParameterError("at least one pump Rabi frequency must be non-zero")
    lam = math.sqrt(s)
    nd = math.sqrt(s)
    npm = math.sqrt(2.0 * s)  # Omega2^2 + lam^2 + Omega3^2 = 2 s
    d = DressedState("d", 0.0, (Omega3 / nd, 0.0, -Omega2 / nd))
    plus = DressedState("+", lam, (Omega2 / npm, -lam / npm, Omega3 / npm))
    minus = DressedState("-", -lam, (Omega2 / npm, lam / npm, Omega3 / npm))
    return d, plus, minus


@dataclass(frozen=True)
class GammaTable:
    """Secular generator over (rho11, rho_pp, rho_mm, rho_dd, rho_1m).

    Row i holds the coefficients of d(element i)/dt.  The coherence is real
    (rho_-1 = rho_1-), so its two conjugate source terms share column 4.
    """

    generator: np.ndarray

    def matrix(self) -> np.ndarray:
        """The 5x5 real generator, a fresh copy the caller may write into."""
        return self.generator.copy()


def gamma_table(gamma1: float, gamma2: float, gamma3: float,
                gamma12: float) -> GammaTable:
    """Rate table of the secular dressed-basis equations.

    Only the coherence column and row carry gamma12: population and
    coherence sectors decouple exactly when the decay interference is
    switched off.
    """
    decay, feed = -(gamma2 + 3.0 * gamma3) / 4.0, (gamma2 + gamma3) / 4.0
    g = np.array([
        [-2.0 * gamma1, 0.0, 0.0, 0.0, -gamma12],
        [gamma1, decay, feed, gamma2 / 2.0, gamma12],
        [gamma1, feed, decay, gamma2 / 2.0, 0.0],
        [0.0, gamma3 / 2.0, gamma3 / 2.0, -gamma2, 0.0],
        [-gamma12 / 2.0, 0.0, -gamma12 / 2.0, 0.0,
         -(4.0 * gamma1 + gamma2 + 2.0 * gamma3) / 4.0],
    ])
    return GammaTable(g)


def secular_table_from_params(params: SystemParams) -> GammaTable:
    """Build the rate table after enforcing the degeneracy lock.

    Requires the Y system, Delta2 = Delta3 = 0, Omega2 = Omega3 > 0 and
    W12 = -sqrt(Omega2^2 + Omega3^2); the table is only valid there.
    """
    if params.system_kind is not SystemKind.Y_FOUR_LEVEL:
        raise ParameterError(f"secular analysis needs the Y system, got "
                             f"system_kind={params.system_kind.value}")
    if params.Delta2 != 0.0 or params.Delta3 != 0.0:
        raise ParameterError(
            f"secular analysis needs zero pump detunings, got "
            f"Delta2={params.Delta2}, Delta3={params.Delta3}"
        )
    if params.Omega2 == 0.0 or not math.isclose(params.Omega2, params.Omega3, rel_tol=_LOCK_RTOL):
        raise ParameterError(
            f"secular analysis needs Omega2 = Omega3 > 0, got "
            f"Omega2={params.Omega2}, Omega3={params.Omega3}"
        )
    w_lock = -math.sqrt(params.Omega2 ** 2 + params.Omega3 ** 2)
    if not math.isclose(params.W12, w_lock, rel_tol=_LOCK_RTOL, abs_tol=1e-12):
        raise ParameterError(
            f"secular analysis needs W12 = -sqrt(Omega2^2+Omega3^2) = "
            f"{w_lock}, got W12={params.W12}"
        )
    return gamma_table(params.gamma1, params.gamma2, params.gamma3,
                       params.gamma12)


def evolve_secular(table: GammaTable, initial, t_max: float, dt: float):
    """Fixed-step 4th-order integration of the 5-variable secular system.

    Returns (times, states) with states of shape (n_steps + 1, 5) in the
    (rho11, rho_pp, rho_mm, rho_dd, rho_1m) ordering; a t_max that rounds
    to zero steps is rejected.
    """
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    y0 = np.asarray(initial, dtype=float)
    if y0.shape != (5,):
        raise ValueError(f"initial state must have 5 components, got {y0.shape}")
    if not math.isclose(y0[:4].sum(), 1.0, abs_tol=1e-9):
        raise ValueError(f"initial populations must sum to 1, got {y0[:4].sum()}")
    g = table.matrix()
    dt_max = 0.01 / np.abs(g).max()
    if dt > dt_max:
        raise ValueError(f"step must satisfy 0 < dt <= {dt_max:.3e}, got {dt}")

    n_steps = int(round(t_max / dt))
    if n_steps == 0:
        raise ValueError(f"t_max = {t_max} rounds to zero steps of dt = {dt}")
    times = np.arange(n_steps + 1) * dt
    # The generator is constant, so the 4th-order step collapses to one
    # precomputed matrix, a = sum_{j<=4} (dt G)^j / j!, and the states are
    # its powers applied to y0.
    dtg = dt * g
    a = np.eye(5) + dtg @ (np.eye(5) + dtg @ (np.eye(5) + dtg @ (np.eye(5) + dtg / 4.0) / 3.0) / 2.0)
    return times, linalg.power_orbit(a, y0, n_steps)


def secular_steady_state(table: GammaTable) -> np.ndarray:
    """Steady state of the secular system with the trace constraint imposed.

    One redundant population row of G y = 0 is replaced by
    rho11 + rho_pp + rho_mm + rho_dd = 1.
    """
    a = table.matrix().astype(complex)
    a[3] = [1.0, 1.0, 1.0, 1.0, 0.0]
    b = np.zeros(5, dtype=complex)
    b[3] = 1.0
    return linalg.solve(a, b).real


def pump_coherence_analytic(gamma1: float, gamma3: float) -> float:
    """Closed-form steady Re(rho23) at zero detunings, maximal interference.

    Valid in the high-field limit with gamma12 ~ sqrt(gamma1 gamma2); all
    rates in units of gamma2.
    """
    denom = (2.0 * gamma1 * (gamma3 + 2.0) * (4.0 * gamma3 + 1.0)
             + (2.0 * gamma3 + 1.0) * (2.0 * gamma3 * (gamma3 + 2.0) + 1.0))
    return math.sqrt(2.0) * gamma1 / denom
