"""Command-line scenario runner.

Subcommands reproduce each bundled scenario's dataset as CSV (full double
precision) and expose the solvers for arbitrary parameters via flat JSON
configuration files.  A subcommand returns its outputs by file-name suffix
("" is --out, "-" is stdout): a {header: column} table is written as CSV
(with a JSON-records mirror under --json), text as is.  main writes them all
and the resolved configuration, from which a rerun is byte-identical.
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


def cmd_probe_spectrum(params: SystemParams, *, delta1_min, delta1_max, n_points, k_value=None):
    values = np.linspace(delta1_min, delta1_max, n_points)
    chi, slope = floquet.probe_spectrum(params, values)
    table = {"delta1": values, "re_chi": chi.real, "im_chi": chi.imag, "slope": slope}
    if k_value is not None:  # c/vg: > 1 subluminal, < 1 superluminal, < 0 negative vg
        table["c_over_vg"] = 1.0 + k_value * slope
    return {"": table}


def cmd_interference_sweep(params: SystemParams, *, p_min, p_max, n_points):
    p_values = np.linspace(p_min, p_max, n_points)
    return {"": {"p": p_values,
                 "slope_normalized": floquet.interference_sweep(params, p_values)}}


def cmd_pump_sweeps(params: SystemParams, *, delta2_min, delta2_max, n_points):
    d2_values = np.linspace(delta2_min, delta2_max, n_points)
    rhos = floquet.pump_sweep(params, d2_values)
    # Populations of every level but the eliminated ground level (the last),
    # and the pump coherences rho_k,k+1 from level 2 on.
    pops, cohs = {"delta2": d2_values}, {"delta2": d2_values}
    for k in range(1, rhos.shape[-1]):
        pops[f"rho{k}{k}"] = rhos[:, k - 1, k - 1].real
    for k in range(2, rhos.shape[-1]):
        cohs[f"re_rho{k}{k + 1}"] = rhos[:, k - 1, k].real
        cohs[f"im_rho{k}{k + 1}"] = rhos[:, k - 1, k].imag
    return {"_populations.csv": pops, "_coherences.csv": cohs}


def cmd_dressed_evolve(params: SystemParams, *, t_max, dt, store_every, oracle_check=False):
    rates = dressed.secular_table_from_params(params)
    times, states = dressed.evolve_secular(rates, dressed.MIDDLE_STATE, t_max, dt)
    names = ["rho11", "rho_pp", "rho_mm", "rho_dd", "rho_1m"]
    table = dict(zip(["t", *names], [times[::store_every], *states[::store_every].T]))

    summary = {"steady": dict(zip(names, map(float, dressed.secular_steady_state(rates))))}
    if oracle_check:
        liouv = build_for(params.with_(Omega1=0.0))
        init = np.zeros(liouv.dim, dtype=complex)
        init[liouv.index("33")] = 1.0
        n_per = math.ceil(dt * store_every / oracle.max_stable_dt(liouv, 0.0))
        cfg = oracle.TrajectoryConfig(t_max=t_max, dt=dt * store_every / n_per,
                                      initial=init, store_every=n_per)
        t_full, s_full = oracle.integrate_full(liouv, params.with_(Omega1=0.0), cfg)
        table["rho11_full"] = np.interp(times[::store_every], t_full, s_full[:, 0].real)
        summary["full_me_rho11_steady"] = float(floquet.steady_state(liouv)[0].real)
    return {"": table, "-": json.dumps(summary) + "\n"}


def cmd_dump_liouvillian(params: SystemParams):
    liouv = build_for(params)
    record = {"labels": list(liouv.labels)}
    for name in ("m0", "m1", "m_minus1", "sigma", "sigma1", "sigma_minus1"):
        a = getattr(liouv, name)
        record[name] = np.stack([a.real, a.imag], axis=-1).tolist()
    return {"": json.dumps(record) + "\n"}


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
        outputs = _COMMANDS[args.command](params, **grid)
        stdout = outputs.pop("-", "")
        for suffix, output in outputs.items():
            path = out.with_name(out.stem + suffix) if suffix else out
            if isinstance(output, str):
                path.write_text(output)
                continue
            write_csv(path, list(output), list(output.values()))
            if getattr(args, "json", False):
                rows = np.column_stack(list(output.values())).tolist()
                Path(f"{path}.json").write_text(
                    json.dumps([dict(zip(output, row)) for row in rows]) + "\n")
        Path(f"{out}.config.json").write_text(
            json.dumps({**params.to_dict(), **grid}, indent=2) + "\n")
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
