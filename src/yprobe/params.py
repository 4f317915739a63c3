"""Physical parameter records and detuning conventions.

All frequencies (decay rates, Rabi frequencies, detunings, level splittings)
are dimensionless, pre-scaled in units of the decay half-rate gamma2 of the
upper driven transition.  The library never touches SI units.  Note the
convention: the stored gamma_i are half-rates; the full spontaneous decay
rate of level i is 2*gamma_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np


class SystemKind(str, Enum):
    Y_FOUR_LEVEL = "Y_FOUR_LEVEL"
    V_THREE_LEVEL = "V_THREE_LEVEL"


class ParameterError(ValueError):
    """Invalid physical parameter."""


def delta_from_delta1(delta1: float, Delta2: float, W12: float) -> float:
    """Probe-pump beat detuning from the probe detuning: delta = Delta1 - Delta2 + W12."""
    return delta1 - Delta2 + W12


def _cross_damping(gamma1: float, gamma2: float, theta_deg: float) -> float:
    if theta_deg == 90.0:  # cos(radians(90)) is ~6e-17: switch interference off exactly
        return 0.0
    return math.sqrt(gamma1 * gamma2) * math.cos(math.radians(theta_deg))


@dataclass(frozen=True)
class SystemParams:
    """All rates, Rabi frequencies, detunings and phases of the driven atom.

    gamma1, gamma2, gamma3 : decay half-rates of |1>, |2>, |3> (units of gamma2)
    theta_deg              : dipole alignment angle in degrees, [0, 90]
    W12                    : excited-doublet splitting
    Omega1, Omega2, Omega3 : half Rabi frequencies of probe and two pumps
    Delta2, Delta3         : pump detunings
    Phi                    : probe-pump phase difference (radians)
    system_kind            : full Y system or reduced V system (|4> omitted;
                             gamma3, Omega3, Delta3 then ignored)

    The cross-damping gamma12 is always derived from theta_deg, never set
    directly, so 0 <= gamma12 <= sqrt(gamma1*gamma2) cannot be violated.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    theta_deg: float
    W12: float
    Omega1: float
    Omega2: float
    Omega3: float
    Delta2: float = 0.0
    Delta3: float = 0.0
    Phi: float = 0.0
    system_kind: SystemKind = SystemKind.Y_FOUR_LEVEL

    def __post_init__(self):
        if isinstance(self.system_kind, str):
            object.__setattr__(self, "system_kind", SystemKind(self.system_kind))
        _check_fields(vars(self))

    @property
    def gamma12(self) -> float:
        """Cross-damping rate sqrt(gamma1*gamma2)*cos(theta).

        Parallel dipoles (theta = 0) give maximal interference, perpendicular
        ones none.
        """
        return _cross_damping(self.gamma1, self.gamma2, self.theta_deg)

    def with_(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["system_kind"] = self.system_kind.value
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(**data)


_FLOAT_FIELDS = tuple(f.name for f in fields(SystemParams) if f.type == "float")
# (names, test, requirement), tests elementwise; v failing reads "name requirement, got v"
_FIELD_CHECKS = (
    (_FLOAT_FIELDS, lambda v: abs(v) < math.inf, "must be finite"),
    (("gamma1", "gamma2", "gamma3"), lambda v: v > 0, "must be positive"),
    (("Omega1", "Omega2", "Omega3"), lambda v: v >= 0, "must be non-negative"),
    (("theta_deg",), lambda v: (v >= 0.0) & (v <= 90.0), "must lie in [0, 90]"),
)


def _is_real(value) -> bool:
    """A real number, or an array of them; a bool is not taken as one."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_fields(values: dict) -> None:
    """ParameterError at the first value (float or 1-d array entry) failing a check."""
    for name in filter(values.__contains__, _FLOAT_FIELDS):
        if not _is_real(values[name]):
            raise ParameterError(f"{name} must be a real number, got {values[name]!r}")
    for names, test, requirement in _FIELD_CHECKS:
        for name in filter(values.__contains__, names):
            ok = test(values[name])
            if not (ok if isinstance(ok, bool) else ok.all()):
                bad = values[name] if np.ndim(ok) == 0 else values[name][np.argmin(ok)]
                raise ParameterError(f"{name} {requirement}, got {bad}")
