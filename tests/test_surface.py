import os
import subprocess
import sys
import types
from pathlib import Path

import yprobe

ROOT = Path(__file__).resolve().parents[1]

# The names `yprobe/__init__.py` exports: what the CLI, the figures and the
# acceptance checks use.  A change to this list is a change to the public API.
PUBLIC = [
    "LiouvillianSet", "PRESETS", "ParameterError", "ProbeResponse", "SystemKind",
    "SystemParams", "TrajectoryConfig", "build_liouvillian", "build_v_liouvillian",
    "delta_from_delta1", "demodulate", "dressed_states", "evolve_secular",
    "gamma_table", "get_preset", "hermitian_reconstruct", "integrate_full",
    "interference_sweep", "probe_spectrum", "pump_coherence_analytic", "pump_sweep",
    "secular_steady_state",
]


def test_public_surface_is_pinned():
    names = sorted(name for name, value in vars(yprobe).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
    assert len(PUBLIC) == 22


def test_benchmark_selftest_passes():
    # perfbench wraps yprobe names (cli._COMMANDS, cli.build_for, floquet.build_for,
    # yprobe.build_liouvillian); a refactor that breaks its hold on them fails here
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
