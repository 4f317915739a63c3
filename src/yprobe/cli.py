"""Command-line scenario runner.

Subcommands reproduce each bundled scenario's dataset as CSV (full double
precision) and expose the solvers for arbitrary parameters via flat JSON
configuration files.  Every run also emits the resolved configuration next
to its output, so any dataset can be regenerated byte-identically from the
emitted file alone.
"""

from __future__ import annotations

import argparse
import functools
import inspect
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


def _write_csv(path: Path, header: list, columns: list, as_json: bool):
    """Write equal-length columns (1-d, or 2-d blocks of columns) as CSV rows, full precision."""
    write_csv(path, header, columns)
    if as_json:
        records = [dict(zip(header, row)) for row in np.column_stack(columns).tolist()]
        Path(str(path) + ".json").write_text(json.dumps(records) + "\n")


def _resolve_config(args) -> tuple[SystemParams, dict]:
    """Merge preset or config file, and flags, into (params, grid).

    grid holds the command's config fields in the order of _FIELDS; a flag
    overrides the file, and an option left unset takes its default.
    """
    if bool(args.preset) == bool(args.config):
        raise ParameterError("exactly one of --preset or --config is required")
    fields = _FIELDS[args.command]
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ParameterError(f"a config must be a JSON object, got {type(data).__name__}")
    else:  # the flat dict a config file holds; a preset's grid may be another command's
        preset = get_preset(args.preset)
        data = preset.params.to_dict() | {k: v for k, v in preset.grid.items() if k in fields}
    grid = {k: data.pop(k) for k in fields if k in data}
    params = SystemParams.from_dict(data)
    grid |= {k: getattr(args, k) for k in fields if getattr(args, k, None) is not None}
    grid = {k: grid.get(k, default) for k, default in fields.items()}
    missing = sorted(k for k, v in grid.items() if v is inspect.Parameter.empty)
    if missing:
        raise ParameterError(f"missing grid fields for {args.command}: {missing}")
    for key, value in grid.items():
        if key == "oracle_check":
            if not isinstance(value, bool):
                raise ParameterError(f"oracle_check must be true or false, got {value!r}")
        elif key in ("n_points", "store_every"):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ParameterError(f"{key} must be an integer >= 1 (a non-empty grid), "
                                     f"got {value!r}")
        elif key == "k_value" and value is None:
            continue
        elif (isinstance(value, bool) or not isinstance(value, (int, float))
              or not math.isfinite(value)):
            raise ParameterError(f"{key} must be a finite number, got {value!r}")
        elif key in ("t_max", "dt") and value <= 0:
            raise ParameterError(f"{key} must be > 0, got {value!r}")
    return params, grid


def cmd_probe_spectrum(params: SystemParams, out: Path, as_json: bool, *,
                       delta1_min, delta1_max, n_points, k_value=None):
    values = np.linspace(delta1_min, delta1_max, n_points)
    chi, slope = floquet.probe_spectrum(params, values)
    header = ["delta1", "re_chi", "im_chi", "slope"]
    columns = [values, chi.real, chi.imag, slope]
    if k_value is not None:
        header.append("c_over_vg")
        columns.append(floquet.group_velocity_ratio(slope, k_value))
    _write_csv(out, header, columns, as_json)


def cmd_interference_sweep(params: SystemParams, out: Path, as_json: bool, *,
                           p_min, p_max, n_points):
    p_values = np.linspace(p_min, p_max, n_points)
    slope = floquet.interference_sweep(params, p_values)
    _write_csv(out, ["p", "slope_normalized"], [p_values, slope], as_json)


def cmd_pump_sweeps(params: SystemParams, out: Path, as_json: bool, *,
                    delta2_min, delta2_max, n_points):
    d2_values = np.linspace(delta2_min, delta2_max, n_points)
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


def cmd_dressed_evolve(params: SystemParams, out: Path, as_json: bool, *,
                       t_max, dt, store_every, oracle_check=False):
    table = dressed.secular_table_from_params(params)
    times, states = dressed.evolve_secular(table, dressed.MIDDLE_STATE, t_max, dt)
    header = ["t", "rho11", "rho_pp", "rho_mm", "rho_dd", "rho_1m"]
    columns = [times[::store_every], states[::store_every]]

    steady = dressed.secular_steady_state(table)
    summary = {"steady": dict(zip(header[1:], map(float, steady)))}
    if oracle_check:
        liouv = build_for(params.with_(Omega1=0.0))
        init = np.zeros(liouv.dim, dtype=complex)
        init[liouv.index("33")] = 1.0
        n_per = math.ceil(dt * store_every / oracle.max_stable_dt(liouv, 0.0))
        cfg = oracle.TrajectoryConfig(t_max=t_max, dt=dt * store_every / n_per,
                                      initial=init, store_every=n_per)
        t_full, s_full = oracle.integrate_full(liouv, params.with_(Omega1=0.0), cfg)
        header.append("rho11_full")
        columns.append(np.interp(times[::store_every], t_full, s_full[:, 0].real))
        summary["full_me_rho11_steady"] = float(
            floquet.steady_state(liouv)[0].real)

    _write_csv(out, header, columns, as_json)
    print(json.dumps(summary))


def cmd_dump_liouvillian(params: SystemParams, out: Path, as_json: bool):
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
# Each command's config fields, its keyword-only parameters in emitted order:
# grid fields (no default) and output options (recorded, with their defaults).
_FIELDS = {name: {p.name: p.default for p in inspect.signature(fn).parameters.values()
                  if p.kind is p.KEYWORD_ONLY} for name, fn in _COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yprobe",
        description="Pump-probe spectra of driven Y-type atoms with "
                    "decay-induced interference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fields in _FIELDS.items():
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="bundled scenario name")
        p.add_argument("--config", help="flat JSON configuration file")
        p.add_argument("--out", required=True, help="output path")
        if "n_points" in fields:
            p.add_argument("--points", dest="n_points", metavar="POINTS", type=int,
                           help="override grid point count")
        if "k_value" in fields:
            p.add_argument("--k-value", type=float,
                           help="group-velocity prefactor K; adds a c_over_vg column")
        if "oracle_check" in fields:
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
        _COMMANDS[args.command](params, out, getattr(args, "json", False), **grid)
        Path(f"{out}.config.json").write_text(
            json.dumps({**params.to_dict(), **grid}, indent=2) + "\n")
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
