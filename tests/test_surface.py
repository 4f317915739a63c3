import types

import yprobe

# The names `yprobe/__init__.py` exports: what the CLI, the figures and the
# acceptance checks use.  A change to this list is a change to the public API.
PUBLIC = [
    "LiouvillianSet", "PRESETS", "ParameterError", "ProbeResponse", "SystemKind",
    "SystemParams", "TrajectoryConfig", "build_liouvillian", "build_v_liouvillian",
    "delta_from_delta1", "demodulate", "dressed_states", "evolve_secular",
    "gamma_table", "get_preset", "group_velocity_ratio", "hermitian_reconstruct",
    "integrate_full", "interference_sweep", "probe_spectrum", "pump_coherence_analytic",
    "pump_sweep", "secular_steady_state",
]


def test_public_surface_is_pinned():
    names = sorted(name for name, value in vars(yprobe).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
    assert len(PUBLIC) == 23
