"""Weak-probe linear response: steady states, susceptibility, dispersion sweeps.

The periodically driven solution is expanded into probe harmonics,

    R(t) = R0 + Omega1 * Rp * exp(-i(delta t - Phi))
              + Omega1 * Rm * exp(+i(delta t - Phi)) + O(Omega1^2),

and truncated at first order in the probe: (M0 + i delta) Rp = Sigma_+ - M_+ R0.
The susceptibility is gamma2 times the rho13 component of Rp (Rm never enters
it and is not computed).  Spectra solve in the eigenbasis of M0 with a block's
detunings as GEMM columns, padded to a multiple of 4 so that no column's
rounding depends on the grid's width; the sweeps solve by stacked LU.  All are
reported against the probe detuning Delta1 = Delta2 + delta - W12.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .liouvillian import LiouvillianSet, build_for, build_stack, hermitian_reconstruct
from .params import SystemParams, _check_fields, delta_from_delta1

# Grid points per stacked solve.  One block's matrices take about 0.5 MB
# (15x15); stacking a whole grid at once would grow the working set with it.
_BLOCK = 128


def steady_state(liouv: LiouvillianSet) -> np.ndarray:
    """Pump-only steady state R0 (probe switched off): M0 R0 = Sigma.

    A stacked liouv (from build_stack) gives one R0 per parameter set.
    """
    return linalg.solve(liouv.m0, liouv.sigma)


def _blocks(values) -> list:
    """A 1-d grid cut into consecutive blocks of at most _BLOCK points."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"a grid must be 1-d, got shape {values.shape}")
    return [values[i:i + _BLOCK] for i in range(0, len(values), _BLOCK)]


def _drive(liouv: LiouvillianSet, r0: np.ndarray) -> np.ndarray:
    """b = Sigma_+ - M_+ R0, the right-hand side of the first-order harmonic."""
    return liouv.sigma1 - (liouv.m1 @ r0[..., None])[..., 0]


def _harmonic(liouv: LiouvillianSet, r0: np.ndarray, delta) -> tuple:
    """Rp and dRp/d delta of a generator (or a stack) with steady state r0, by LU.

    With A = M0 + i delta and b = Sigma_+ - M_+ R0, Rp = A^-1 b and, since
    dA^-1/d delta = -i A^-2, dRp/d delta = -i A^-1 Rp exactly; one LU of A
    serves both.  delta is a scalar or an array broadcast against M0.
    """
    lu = linalg.LU(liouv.m0 + (1j * np.asarray(delta, dtype=float))[..., None, None]
                   * np.eye(liouv.dim))
    r_plus = lu.solve(_drive(liouv, r0))
    return r_plus, -1j * lu.solve(r_plus)


class ProbeResponse:
    """The linear-response core: one generator and steady state per parameter set.

    Every susceptibility, dispersion slope and spectrum is read from
    :meth:`harmonic`, so the generator is built, R0 solved and M0
    diagonalized once however many detunings are asked for.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.liouv = build_for(params)
        self.r0 = steady_state(self.liouv)
        self._i13 = self.liouv.index("13")
        self._b = _drive(self.liouv, self.r0)
        m0 = self.liouv.m0
        lam, vec = np.linalg.eig(m0)
        vinv = np.linalg.inv(vec)
        # the diagonal of M0 and the row sums of |M0| off it give |M0 + i delta|
        diag = np.diag(m0)
        off = np.abs(m0 - np.diag(diag)).sum(axis=-1)
        self._modes = (lam, vec, vinv, diag[:, None], off[:, None])

    @np.errstate(all="ignore")  # detunings the eigenbasis cannot take are flagged below
    def harmonic(self, delta) -> tuple[np.ndarray, np.ndarray]:
        """First-order harmonic Rp at beat detuning delta, and dRp/d delta.

        delta is a scalar, or an array whose shape leads the returned stacks.
        Each A x = y, A = M0 + i delta, is solved as x = V (V^-1 y)/(lam + i delta)
        plus one such correction for the residual y - A x.  Detunings are the
        columns of (n, k) arrays, so each product is one GEMM, with k padded to
        a multiple of 4 by repeats: OpenBLAS rounds a column in a tail 1-3 wide
        differently, and no result may depend on the grid.  Stacked LU, with its
        errors, takes detunings that are not finite, near an eigenvalue by
        linalg's pivot test or above its backward-error bound.
        """
        delta = np.asarray(delta, dtype=float)
        lam, vec, vinv, diag, off = self._modes
        m0, k = self.liouv.m0, delta.size
        shift = 1j * np.resize(delta, -(-k // 4) * 4)
        poles = lam[:, None] + shift
        norm = (off + np.abs(diag + shift)).max(axis=0)   # |A|, the max row sum, as linalg.LU

        def solve(y, y_norm):
            x = vec @ (vinv @ y / poles)
            x = x + vec @ (vinv @ (y - m0 @ x - shift * x) / poles)
            residual = np.abs(y - m0 @ x - shift * x).max(axis=0)
            x_norm = np.abs(x).max(axis=0)
            return x, x_norm, residual <= linalg.BACKWARD_TOL * (norm * x_norm + y_norm)

        r_plus, r_norm, ok_r = solve(self._b[:, None], np.abs(self._b).max())
        s, _, ok_s = solve(r_plus, r_norm)
        # scale >= max|A| as in the pivot test; a non-finite delta fails on its NaN residual
        scale = np.abs(m0).max() + np.abs(shift)
        ok = (ok_r & ok_s & (np.abs(poles).min(axis=0) >= linalg.PIVOT_RTOL * scale))[:k]
        r_plus, d_r_plus = r_plus[:, :k].T, -1j * s[:, :k].T
        if not ok.all():  # LU raises as it always has, indexed into delta
            lu = _harmonic(self.liouv, self.r0, delta)
            r_plus[~ok], d_r_plus[~ok] = (x.reshape(r_plus.shape)[~ok] for x in lu)
        return tuple(x.reshape(delta.shape + lam.shape) for x in (r_plus, d_r_plus))

    def response(self, delta1) -> tuple:
        """Susceptibility and dispersion slope d Re(chi)/d Delta1 at delta1 (scalar or array)."""
        delta = delta_from_delta1(np.asarray(delta1, dtype=float),
                                  self.params.Delta2, self.params.W12)
        r_plus, d_r_plus = self.harmonic(delta)
        gamma2 = self.params.gamma2
        # d delta / d Delta1 = 1, so the delta-derivative is the slope.
        return gamma2 * r_plus[..., self._i13], gamma2 * d_r_plus[..., self._i13].real


def group_velocity_ratio(slope_normalized: float, K: float) -> float:
    """c/vg = 1 + K * slope; > 1 subluminal, < 1 superluminal, < 0 negative vg."""
    return 1.0 + K * slope_normalized


def probe_spectrum(params: SystemParams, delta1_values) -> tuple[np.ndarray, np.ndarray]:
    """Susceptibility and dispersion slope arrays over a detuning grid, a block per solve."""
    blocks = _blocks(delta1_values)
    resp = ProbeResponse(params)
    parts = [resp.response(block) for block in blocks or [np.empty(0)]]
    return tuple(np.concatenate(column) for column in zip(*parts))


def interference_sweep(params: SystemParams, p_grid) -> np.ndarray:
    """Line-centre dispersion slope versus interference strength p = cos(theta), one per p."""
    p_grid = np.asarray(p_grid, dtype=float)
    bad = p_grid[~((p_grid >= 0.0) & (p_grid <= 1.0))]
    if bad.size:
        raise ValueError(f"interference parameter p must lie in [0, 1], got {bad[0]}")
    delta = delta_from_delta1(0.0, params.Delta2, params.W12)
    out = [np.empty(0)]
    for block in _blocks(p_grid):
        liouv = build_stack(params, theta_deg=np.degrees(np.arccos(block)))
        _, d_r_plus = _harmonic(liouv, steady_state(liouv), delta)
        out.append(params.gamma2 * d_r_plus[:, liouv.index("13")].real)
    return np.concatenate(out)


def pump_sweep(params: SystemParams, delta2_grid) -> np.ndarray:
    """Steady density matrices versus pump detuning at two-photon resonance.

    The probe is off (Omega1 = 0) and Delta3 = -Delta2 is enforced pointwise.
    Returns one reconstructed density matrix per grid point, stacked.
    """
    _check_fields({"Delta2": np.asarray(delta2_grid, dtype=float)})
    out = []
    for block in _blocks(delta2_grid):
        liouv = build_stack(params, Delta2=block, Delta3=-block)
        out.append(hermitian_reconstruct(steady_state(liouv)))
    return np.concatenate(out) if out else np.array([])
