"""Pump-probe spectroscopy of coherently driven Y-type four-level atoms.

Simulates the weak-probe susceptibility, dispersion slopes and group
velocities, dressed-state population dynamics, and pump-coherence spectra
of a four-level atom whose excited doublet decays through shared vacuum
modes (decay-induced interference), plus the reduced three-level V system.
"""

from .params import ParameterError, SystemKind, SystemParams, delta_from_delta1
from .liouvillian import (
    LiouvillianSet,
    build_liouvillian,
    build_v_liouvillian,
    hermitian_reconstruct,
)
from .floquet import (
    ProbeResponse,
    interference_sweep,
    probe_spectrum,
    pump_sweep,
)
from .dressed import (
    dressed_states,
    evolve_secular,
    gamma_table,
    pump_coherence_analytic,
    secular_steady_state,
)
from .oracle import TrajectoryConfig, demodulate, integrate_full
from .presets import PRESETS, get_preset

__version__ = "0.1.0"
