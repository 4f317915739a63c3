"""Named parameter sets reproducing the bundled reference scenarios.

Each preset carries the full physical parameter record plus the default
sweep grid, and is the single source of truth addressed by the CLI and the
acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SystemKind, SystemParams

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Preset:
    params: SystemParams
    grid: dict


def _y(theta_deg, omega, w12, **kw):
    defaults = dict(gamma1=0.01, gamma2=1.0, gamma3=0.01, Delta2=0.0, Delta3=0.0,
                    Omega1=1e-3, Phi=0.0)
    defaults.update(kw)
    return SystemParams(theta_deg=theta_deg, Omega2=omega, Omega3=omega,
                        W12=w12, **defaults)


_SPECTRUM_GRID = {"delta1_min": -10.0, "delta1_max": 10.0, "n_points": 2001}
_PUMP_GRID = {"delta2_min": -10.0, "delta2_max": 10.0, "n_points": 1001}

PRESETS = {
    # strong pumps, no decay interference: Autler-Townes absorption doublet
    "fig2a": Preset(_y(90.0, 4.0 / SQRT2, -4.0), dict(_SPECTRUM_GRID)),
    # same drive with interference: gain doublet, anomalous dispersion
    "fig2b": Preset(_y(15.0, 4.0 / SQRT2, -4.0), dict(_SPECTRUM_GRID)),
    # small doublet splitting: closely spaced gain peaks, steep negative slope
    "fig3": Preset(_y(15.0, 0.75 / SQRT2, -0.75), dict(_SPECTRUM_GRID)),
    # slope at line centre versus interference strength (fig3 base parameters)
    "fig4": Preset(_y(15.0, 0.75 / SQRT2, -0.75),
                   {"p_min": 0.0, "p_max": 1.0, "n_points": 201}),
    # reduced V system, single pump
    "fig5b": Preset(SystemParams(
        gamma1=0.01, gamma2=1.0, gamma3=0.01, theta_deg=15.0, W12=-4.0,
        Omega1=1e-3, Omega2=4.0, Omega3=0.0,
        system_kind=SystemKind.V_THREE_LEVEL), dict(_SPECTRUM_GRID)),
    "fig5c": Preset(SystemParams(
        gamma1=0.01, gamma2=1.0, gamma3=0.01, theta_deg=15.0, W12=-2.0,
        Omega1=1e-3, Omega2=2.0, Omega3=0.0,
        system_kind=SystemKind.V_THREE_LEVEL), dict(_SPECTRUM_GRID)),
    # pump-only population sweep at two-photon resonance (fig2b parameters)
    "fig6": Preset(_y(15.0, 4.0 / SQRT2, -4.0, Omega1=0.0), dict(_PUMP_GRID)),
    # secular dressed-basis evolution from the bare middle state
    "fig7": Preset(_y(15.0, 4.0 / SQRT2, -4.0, Omega1=0.0),
                   {"t_max": 1000.0, "dt": 0.01, "store_every": 10}),
    # strong pumps with fast upper decay: pump-coherence enhancement
    "fig8": Preset(_y(10.0, 30.0 / SQRT2, -30.0,
                      gamma1=5.0, gamma3=0.01, Omega1=0.0),
                   dict(_PUMP_GRID)),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
