"""The master-equation generator, derived from the Hamiltonian and the decay operators.

Each system is stated once in the frame rotating with the pumps: its level
energies, its pump couplings -Omega(|i><j| + h.c.) and its decay channels.
The upper levels |1>, |2> decay to |3> through shared vacuum modes, with the
rate matrix [[gamma1, gamma12], [gamma12, gamma2]] whose cross-damping
gamma12 = sqrt(gamma1 gamma2) cos(theta) is the interference; in the Y
system |3> decays on to |4>.  The master equation

    d rho/dt = -i[H, rho] + sum_ij Gamma_ij (2 s_i rho s_j^+ - {s_j^+ s_i, rho})

is a matrix L on row-major vec(rho).  Eliminating the ground population by
the trace, vec(rho) = Q R + e_ground, gives the element equations

    d/dt R + Sigma = M R,    M = L[rows] Q,    Sigma = -L[rows, ground],
    M = M0 + Omega1 * M1 * exp(-i(delta t - Phi))
           + Omega1 * Mm1 * exp(+i(delta t - Phi)),

with M1, Mm1 from the probe couplings -|1><3| and -|3><1|.  R is ordered as
Y_LABELS (rho44 eliminated) or, for the reduced V system without |4>, as
V_LABELS (rho33 eliminated); there the elimination hits a probe term, so
Sigma carries one component per harmonic.  M0 and Sigma are linear in the
rates, splitting, detunings and pump Rabi frequencies: their per-parameter
pieces are derived once at import, and a build is their weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .params import (_FLOAT_FIELDS, ParameterError, SystemKind, SystemParams, _check_fields,
                     _cross_damping)

Y_LABELS = (
    "11", "22", "33", "12", "13", "23", "14", "24", "34",
    "21", "31", "32", "41", "42", "43",
)
V_LABELS = ("11", "22", "12", "13", "23", "21", "31", "32")


@dataclass(frozen=True)
class LiouvillianSet:
    """Harmonic pieces of the generator plus the inhomogeneous vectors.

    m0 has no dependence on Omega1, delta, or Phi; m1 / m_minus1 hold the
    coefficients multiplying Omega1*exp(-+i(delta t - Phi)).  sigma is the
    static inhomogeneous vector; sigma1 / sigma_minus1 (per unit Omega1)
    are non-zero only in V mode, where trace elimination hits a probe term.
    """

    m0: np.ndarray
    m1: np.ndarray
    m_minus1: np.ndarray
    sigma: np.ndarray
    sigma1: np.ndarray
    sigma_minus1: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.m0.shape[-1]

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _ket_bra(size: int, i: int, j: int) -> np.ndarray:
    """|i><j| on levels numbered from 1."""
    op = np.zeros((size, size), dtype=complex)
    op[i - 1, j - 1] = 1.0
    return op


def _superoperator(h: np.ndarray, jumps) -> np.ndarray:
    """Row-major vec(rho) matrix of -i[h, rho] + sum_(a, b) (2 a rho b^+ - {b^+ a, rho})."""
    eye = np.eye(len(h))
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a, b in jumps:
        ba = b.conj().T @ a
        out += 2 * np.kron(a, b.conj()) - np.kron(ba, eye) - np.kron(eye, ba.T)
    return out


def _cross_damped(s1, s2, g1, g2, g12):
    """Jump pairs of two channels with rate matrix [[g1, g12], [g12, g2]]."""
    return [(g1 * s1, s1), (g12 * s1, s2), (g12 * s2, s1), (g2 * s2, s2)]


def _y_generator(g1, g2, g3, g12, W, D2, D3, O2, O3):
    k = partial(_ket_bra, 4)
    h = (np.diag([W - D2 - D3, -D2 - D3, -D3, 0.0])
         - O2 * (k(2, 3) + k(3, 2)) - O3 * (k(3, 4) + k(4, 3)))
    jumps = _cross_damped(k(3, 1), k(3, 2), g1, g2, g12) + [(g3 * k(4, 3), k(4, 3))]
    return _superoperator(h, jumps)


def _v_generator(g1, g2, g12, W, D2, O2):
    k = partial(_ket_bra, 3)
    h = np.diag([W - D2, -D2, 0.0]) - O2 * (k(2, 3) + k(3, 2))
    return _superoperator(h, _cross_damped(k(3, 1), k(3, 2), g1, g2, g12))


class _System(NamedTuple):
    """Element ordering and generator pieces of one system.

    pieces[j] is M0 per unit of names[j] with Sigma appended as a last row;
    probe holds M1 and Mm1 stacked the same way on Sigma1 and Sigma-1.
    """

    labels: tuple
    names: tuple
    size: int
    rows: np.ndarray
    pieces: np.ndarray
    probe: tuple


def _derive(labels: tuple, names: tuple, generator) -> _System:
    """Project the generator onto labels, with the last level as the ground state."""
    size = math.isqrt(len(labels) + 1)
    rows = np.array([size * (int(a) - 1) + int(b) - 1 for a, b in labels])
    ground = size * size - 1
    q = np.zeros((size * size, len(labels)))
    q[rows, np.arange(len(labels))] = 1.0
    q[ground, [k for k, (a, b) in enumerate(labels) if a == b]] = -1.0

    def project(lv):
        return np.vstack([lv[rows] @ q, -lv[rows, ground]])

    pieces = np.array([project(generator(*unit)) for unit in np.eye(len(names))])
    probe = tuple(project(_superoperator(-_ket_bra(size, i, j), []))
                  for i, j in ((1, 3), (3, 1)))
    return _System(labels, names, size, rows, pieces, probe)


_Y = _derive(Y_LABELS, ("gamma1", "gamma2", "gamma3", "gamma12", "W12",
                        "Delta2", "Delta3", "Omega2", "Omega3"), _y_generator)
_V = _derive(V_LABELS, ("gamma1", "gamma2", "gamma12", "W12", "Delta2", "Omega2"),
             _v_generator)


def _assemble(system: _System, weights: np.ndarray) -> LiouvillianSet:
    """The generator at weights (one value per name), or a stack of them for (k, names)."""
    # One real GEMM, bit-equal to the weighted sum of the pieces: they hold only
    # 0, +-1 and +-2, so every product is exact, and the sum runs from +0 in
    # the fixed order of names (a test checks it), so (W - D2) - D3 rounds as
    # written.
    flat = weights @ system.pieces.reshape(len(system.names), -1).view(float)
    acc = flat.view(complex).reshape(weights.shape[:-1] + system.pieces.shape[1:])
    plus, minus = (np.array(p) for p in system.probe)
    return LiouvillianSet(acc[..., :-1, :], plus[:-1], minus[:-1],
                          acc[..., -1, :], plus[-1], minus[-1], system.labels)


def _build(params: SystemParams, kind: SystemKind, system: _System) -> LiouvillianSet:
    if params.system_kind is not kind:
        raise ParameterError(f"expected {kind.value} params, got {params.system_kind}")
    return _assemble(system, np.array([getattr(params, name) for name in system.names]))


def build_liouvillian(params: SystemParams) -> LiouvillianSet:
    """15-dimensional generator of the full four-level Y system."""
    return _build(params, SystemKind.Y_FOUR_LEVEL, _Y)


def build_v_liouvillian(params: SystemParams) -> LiouvillianSet:
    """8-dimensional generator of the reduced three-level V system."""
    return _build(params, SystemKind.V_THREE_LEVEL, _V)


def build_for(params: SystemParams) -> LiouvillianSet:
    if params.system_kind is SystemKind.Y_FOUR_LEVEL:
        return build_liouvillian(params)
    return build_v_liouvillian(params)


def build_stack(params: SystemParams, **columns) -> LiouvillianSet:
    """Generators of params with float fields swept by 1-d columns of one length k.

    build_stack(p, Delta2=d, Delta3=-d) gives m0 and sigma a leading axis whose
    entry i is bit-equal to build_for(p.with_(Delta2=d[i], Delta3=-d[i])).  The
    columns, uncast, pass the checks of SystemParams; unused fields are then ignored.
    """
    if not set(columns) <= set(_FLOAT_FIELDS):
        raise ParameterError(f"cannot sweep {sorted(set(columns) - set(_FLOAT_FIELDS))}")
    columns = {name: np.asarray(v) for name, v in columns.items()}
    shapes = {name: v.shape for name, v in columns.items()}
    if len(set(shapes.values())) != 1 or len(shape := next(iter(shapes.values()))) != 1:
        raise ParameterError(f"expected 1-d columns of one length, got shapes {shapes}")
    _check_fields(columns)
    values = {name: np.broadcast_to(columns.get(name, getattr(params, name)), shape)
              for name in _FLOAT_FIELDS + ("gamma12",)}
    if columns.keys() & {"gamma1", "gamma2", "theta_deg"}:
        values["gamma12"] = [_cross_damping(*row) for row in zip(
            *(values[name].tolist() for name in ("gamma1", "gamma2", "theta_deg")))]
    system = _Y if params.system_kind is SystemKind.Y_FOUR_LEVEL else _V
    return _assemble(system, np.stack([values[name] for name in system.names], axis=-1))


def hermitian_reconstruct(v: np.ndarray) -> np.ndarray:
    """Rebuild the full density matrix from an element vector, or a stack of them.

    The eliminated population is restored from the trace condition: a
    15-vector yields the 4x4 Y-system matrix (rho44 restored), an 8-vector
    the 3x3 V-system matrix (rho33 restored).  Leading axes of v are kept.
    """
    v = np.asarray(v, dtype=complex)
    system = {15: _Y, 8: _V}.get(v.shape[-1] if v.ndim else None)
    if system is None:
        raise ValueError(f"expected 15- or 8-component vectors, got shape {v.shape}")
    rho = np.zeros(v.shape[:-1] + (system.size ** 2,), dtype=complex)
    rho[..., system.rows] = v
    rho = rho.reshape(v.shape[:-1] + (system.size, system.size))
    rho[..., -1, -1] = 1.0 - np.trace(rho, axis1=-2, axis2=-1)
    return rho
