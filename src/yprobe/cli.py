"""Command-line scenario runner.

Subcommands reproduce each bundled scenario's dataset as CSV (full double
precision) and expose the solvers for arbitrary parameters via flat JSON
configuration files.  Every run also emits the resolved configuration next
to its output, so any dataset can be regenerated byte-identically from the
emitted file alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dressed, floquet, oracle
from ._csv import write_csv
from .liouvillian import build_for
from .params import ParameterError, SystemParams
from .presets import PRESETS, get_preset

_GRID_KEYS = {
    "probe-spectrum": ("delta1_min", "delta1_max", "n_points"),
    "interference-sweep": ("p_min", "p_max", "n_points"),
    "pump-sweeps": ("delta2_min", "delta2_max", "n_points"),
    "dressed-evolve": ("t_max", "dt", "store_every"),
    "dump-liouvillian": (),
}

# Output-affecting flags with their defaults.  Each is recorded in the
# emitted configuration and read back from --config; a flag given on the
# command line overrides the file.
_OPTIONS = {
    "probe-spectrum": {"k_value": None},
    "dressed-evolve": {"oracle_check": False},
}


def _write_csv(path: Path, header: list, columns: list, as_json: bool):
    """Write equal-length columns (1-d, or 2-d blocks of columns) as CSV rows, full precision."""
    write_csv(path, header, columns)
    if as_json:
        records = [dict(zip(header, row)) for row in np.column_stack(columns).tolist()]
        Path(str(path) + ".json").write_text(json.dumps(records) + "\n")


def _resolve_config(args) -> tuple[SystemParams, dict]:
    """Merge preset or config file, and flags, into (params, grid).

    grid holds the command's grid fields and its output options.
    """
    if bool(args.preset) == bool(args.config):
        raise ParameterError("exactly one of --preset or --config is required")
    grid_keys = _GRID_KEYS[args.command]
    options = _OPTIONS.get(args.command, {})
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ParameterError(f"a config must be a JSON object, got {type(data).__name__}")
        grid = {k: data.pop(k) for k in (*grid_keys, *options) if k in data}
        params = SystemParams.from_dict(data)
    else:
        preset = get_preset(args.preset)
        params = preset.params
        grid = {k: v for k, v in preset.grid.items() if k in grid_keys}

    if getattr(args, "points", None) is not None:
        grid["n_points"] = args.points
    for key, default in options.items():
        if getattr(args, key) is not None:
            grid[key] = getattr(args, key)
        grid.setdefault(key, default)
    missing = set(grid_keys) - set(grid)
    if missing:
        raise ParameterError(f"missing grid fields for {args.command}: {sorted(missing)}")
    for key in (*grid_keys, *(["k_value"] if grid.get("k_value") is not None else [])):
        value = grid[key]
        if key in ("n_points", "store_every"):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ParameterError(f"{key} must be an integer >= 1 (a non-empty grid), "
                                     f"got {value!r}")
        elif (isinstance(value, bool) or not isinstance(value, (int, float))
              or not math.isfinite(value)):
            raise ParameterError(f"{key} must be a finite number, got {value!r}")
        elif key in ("t_max", "dt") and value <= 0:
            raise ParameterError(f"{key} must be > 0, got {value!r}")
    if not isinstance(grid.get("oracle_check", False), bool):
        raise ParameterError(
            f"oracle_check must be true or false, got {grid['oracle_check']!r}")
    return params, grid


def cmd_probe_spectrum(params: SystemParams, grid: dict, out: Path, as_json: bool):
    values = np.linspace(grid["delta1_min"], grid["delta1_max"], grid["n_points"])
    chi, slope = floquet.probe_spectrum(params, values)
    header = ["delta1", "re_chi", "im_chi", "slope"]
    columns = [values, chi.real, chi.imag, slope]
    if grid["k_value"] is not None:
        header.append("c_over_vg")
        columns.append(floquet.group_velocity_ratio(slope, grid["k_value"]))
    _write_csv(out, header, columns, as_json)


def cmd_interference_sweep(params: SystemParams, grid: dict, out: Path, as_json: bool):
    p_values = np.linspace(grid["p_min"], grid["p_max"], grid["n_points"])
    slope = floquet.interference_sweep(params, p_values)
    _write_csv(out, ["p", "slope_normalized"], [p_values, slope], as_json)


def cmd_pump_sweeps(params: SystemParams, grid: dict, out: Path, as_json: bool):
    d2_values = np.linspace(grid["delta2_min"], grid["delta2_max"], grid["n_points"])
    rhos = floquet.pump_sweep(params, d2_values)
    # Populations of every level but the eliminated ground level (the last),
    # and the pump coherences rho_k,k+1 from level 2 on.
    size = rhos.shape[-1]
    pop_header, pops = ["delta2"], [d2_values]
    for k in range(1, size):
        pop_header.append(f"rho{k}{k}")
        pops.append(rhos[:, k - 1, k - 1].real)
    coh_header, cohs = ["delta2"], [d2_values]
    for k in range(2, size):
        coh_header += [f"re_rho{k}{k + 1}", f"im_rho{k}{k + 1}"]
        cohs += [rhos[:, k - 1, k].real, rhos[:, k - 1, k].imag]
    _write_csv(out.with_name(out.stem + "_populations.csv"), pop_header, pops, as_json)
    _write_csv(out.with_name(out.stem + "_coherences.csv"), coh_header, cohs, as_json)


def cmd_dressed_evolve(params: SystemParams, grid: dict, out: Path, as_json: bool):
    table = dressed.secular_table_from_params(params)
    times, states = dressed.evolve_secular(
        table, dressed.MIDDLE_STATE, grid["t_max"], grid["dt"])
    step = grid["store_every"]
    header = ["t", "rho11", "rho_pp", "rho_mm", "rho_dd", "rho_1m"]
    columns = [times[::step], states[::step]]

    steady = dressed.secular_steady_state(table)
    summary = {"steady": dict(zip(header[1:], map(float, steady)))}
    if grid["oracle_check"]:
        liouv = build_for(params.with_(Omega1=0.0))
        init = np.zeros(liouv.dim, dtype=complex)
        init[liouv.index("33")] = 1.0
        n_per = math.ceil(grid["dt"] * step / oracle.max_stable_dt(liouv, 0.0))
        cfg = oracle.TrajectoryConfig(t_max=grid["t_max"], dt=grid["dt"] * step / n_per,
                                      initial=init, store_every=n_per)
        t_full, s_full = oracle.integrate_full(liouv, params.with_(Omega1=0.0), cfg)
        header.append("rho11_full")
        columns.append(np.interp(times[::step], t_full, s_full[:, 0].real))
        summary["full_me_rho11_steady"] = float(
            floquet.steady_state(liouv)[0].real)

    _write_csv(out, header, columns, as_json)
    print(json.dumps(summary))


def cmd_dump_liouvillian(params: SystemParams, grid: dict, out: Path, as_json: bool):
    liouv = build_for(params)
    record = {"labels": list(liouv.labels)}
    for name in ("m0", "m1", "m_minus1", "sigma", "sigma1", "sigma_minus1"):
        a = getattr(liouv, name)
        record[name] = np.stack([a.real, a.imag], axis=-1).tolist()
    out.write_text(json.dumps(record) + "\n")


_COMMANDS = {
    "probe-spectrum": cmd_probe_spectrum,
    "interference-sweep": cmd_interference_sweep,
    "pump-sweeps": cmd_pump_sweeps,
    "dressed-evolve": cmd_dressed_evolve,
    "dump-liouvillian": cmd_dump_liouvillian,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yprobe",
        description="Pump-probe spectra of driven Y-type atoms with "
                    "decay-induced interference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="bundled scenario name")
        p.add_argument("--config", help="flat JSON configuration file")
        p.add_argument("--out", required=True, help="output path")
        if "n_points" in _GRID_KEYS[name]:
            p.add_argument("--points", type=int, help="override grid point count")
        if "k_value" in _OPTIONS.get(name, {}):
            p.add_argument("--k-value", type=float,
                           help="group-velocity prefactor K; adds a c_over_vg column")
        if "oracle_check" in _OPTIONS.get(name, {}):
            p.add_argument("--oracle-check", action="store_true", default=None,
                           help="add a full master-equation comparison column")
        if name != "dump-liouvillian":
            p.add_argument("--json", action="store_true",
                           help="mirror CSV output as JSON row objects")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, grid = _resolve_config(args)
        out = Path(args.out)
        _COMMANDS[args.command](params, grid, out, getattr(args, "json", False))
        Path(f"{out}.config.json").write_text(
            json.dumps({**params.to_dict(), **grid}, indent=2) + "\n")
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
