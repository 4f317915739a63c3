"""Seeded workloads: parameter draws, job configs and the job runner.

Every job is derived from (seed, workload, job index) alone, so one seed
always yields byte-identical configuration files.  yprobe only ever sees
the generated configs (CLI jobs) or the generated parameter records
(library jobs, for the oracle, which the CLI cannot reach).

Draw rule: a kind starts from one of its base presets (picked uniformly),
then draws each entry of its `draws` table uniformly from [lo, hi].  An
entry `X_scale` multiplies the base value of X (`Omega_scale` multiplies
both pump Rabi frequencies); any other entry sets that parameter.
Redraw rule: a draw whose settle time 25 / min|Re lambda(M0)| (as in
acceptance 6) exceeds the kind's `settle_cap` at any of its `settle_at`
points is redrawn, so one job's cost and conditioning stay bounded.
Oracle draws are also redrawn when the fixed step exceeds 0.9 times the
integrator's stability bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_REDRAWS = 1000

SPECTRUM_GRID = {"delta1_min": -10.0, "delta1_max": 10.0, "n_points": 2001}
PUMP_GRID = {"delta2_min": -10.0, "delta2_max": 10.0, "n_points": 1001}
INTERFERENCE_GRID = {"p_min": 0.0, "p_max": 1.0, "n_points": 201}
SECULAR_GRID = {"t_max": 1000.0, "dt": 0.01, "store_every": 10}
ORACLE_RUN = {"t_max": 50.0, "dt": 0.0035, "store_every": 4, "window": 30.0}

KINDS = {
    # Y system around the gain-doublet figures; K is the group-velocity prefactor.
    "spectrum-y": {
        "command": "probe-spectrum", "bases": ("fig2b", "fig3"),
        "draws": {"theta_deg": (5.0, 25.0), "Omega_scale": (0.8, 1.25),
                  "W12_scale": (0.9, 1.1), "gamma1": (0.005, 0.02),
                  "gamma3": (0.005, 0.02), "Delta2": (-0.2, 0.2),
                  "Delta3": (-0.2, 0.2), "Phi": (0.0, TWO_PI),
                  "k_value": (100.0, 1000.0)},
        "grid": SPECTRUM_GRID, "settle_cap": 2e4, "settle_at": "params",
    },
    # reduced V system (single pump)
    "spectrum-v": {
        "command": "probe-spectrum", "bases": ("fig5b", "fig5c"),
        "draws": {"theta_deg": (5.0, 25.0), "Omega_scale": (0.8, 1.25),
                  "W12_scale": (0.9, 1.1), "gamma1": (0.005, 0.02),
                  "Delta2": (-0.2, 0.2), "Phi": (0.0, TWO_PI),
                  "k_value": (100.0, 1000.0)},
        "grid": SPECTRUM_GRID, "settle_cap": 2e4, "settle_at": "params",
    },
    # probe-off pump-detuning sweeps, populations and coherences
    "pump": {
        "command": "pump-sweeps", "bases": ("fig6", "fig8"),
        "draws": {"theta_deg": (5.0, 20.0), "Omega_scale": (0.8, 1.25),
                  "W12_scale": (0.9, 1.1), "gamma1_scale": (0.5, 2.0),
                  "gamma3": (0.005, 0.02), "Phi": (0.0, TWO_PI)},
        "grid": PUMP_GRID, "settle_cap": 2e4, "settle_at": "pump",
    },
    # line-centre slope against p = cos(theta); theta_deg itself is swept
    "interference": {
        "command": "interference-sweep", "bases": ("fig4",),
        "draws": {"Omega_scale": (0.8, 1.25), "W12_scale": (0.9, 1.1),
                  "gamma1": (0.005, 0.02), "gamma3": (0.005, 0.02),
                  "Delta2": (-0.1, 0.1), "Delta3": (-0.1, 0.1),
                  "Phi": (0.0, TWO_PI)},
        "grid": INTERFERENCE_GRID, "settle_cap": 2e4, "settle_at": "interference",
    },
    # secular dressed-state evolution under the fig7 degeneracy lock
    # (Delta2 = Delta3 = 0, Omega2 = Omega3, W12 = -sqrt(2) Omega)
    "dressed": {
        "command": "dressed-evolve", "bases": ("fig7",),
        "draws": {"Omega2": (2.6, 3.0), "theta_deg": (5.0, 25.0),
                  "gamma1": (0.005, 0.02), "gamma3": (0.005, 0.02)},
        "grid": SECULAR_GRID, "settle_cap": 2e4, "settle_at": "params",
        "lock": True,
    },
    # probe-on full master equation, acceptance-6 ranges, fixed step and span
    "oracle": {
        "command": None, "bases": (None,),
        "draws": {"gamma1": (0.3, 1.5), "gamma3": (0.3, 1.5),
                  "theta_deg": (0.0, 90.0), "W12": (-3.0, 3.0),
                  "Omega2": (0.5, 2.5), "Omega3": (0.5, 2.5),
                  "Delta2": (-1.0, 1.0), "Delta3": (-1.0, 1.0),
                  "Phi": (0.0, TWO_PI), "demod_delta": (0.5, 2.0)},
        "grid": ORACLE_RUN, "settle_cap": ORACLE_RUN["t_max"], "settle_at": "params",
    },
}

# Each workload cycles through a fixed pattern of kinds, so the mix, and
# with it items per second, does not depend on the seed.  `steady` holds
# the frequency-domain jobs: one round is one job per figure panel of the
# paper, Y spectra (figs 2b, 3), V spectra (figs 5b, 5c), pump sweeps
# (figs 6, 8) and the interference sweep (fig 4), so Y:V = 1:1 and
# pump:interference = 2:1.  `dynamics` holds the time-domain jobs.  The
# probe-on oracle backs no figure (it is the check of acceptance 6), so
# traffic alone would give it no weight; it runs 1:1 with the fig7 dressed
# evolution so that both time steppers are measured.
WORKLOADS = {
    "steady": ("spectrum-y", "pump", "spectrum-v", "interference",
               "spectrum-y", "pump", "spectrum-v"),
    "dynamics": ("oracle", "dressed"),
}
# Job times are reported per slot: in `steady`, slot a holds the spectra
# (one generator, many solves) and slot b the sweeps (a fresh generator
# per point); in `dynamics`, a is the oracle and b the dressed evolution.
SLOTS = {"spectrum-y": "a", "spectrum-v": "a", "pump": "b", "interference": "b",
         "oracle": "a", "dressed": "b"}
WORKLOAD_IDS = {name: k for k, name in enumerate(WORKLOADS)}
# Seed of the fixed, seed-independent warm-up jobs.
WARMUP_SEED = 0
# Sizes of the shrunken warm-up jobs.
WARMUP_POINTS = 101
WARMUP_T_MAX = {"dressed": 100.0, "oracle": 5.0}

_ORACLE_BASE = {"gamma2": 1.0, "Omega1": 1e-3, "system_kind": "Y_FOUR_LEVEL"}


@dataclass(frozen=True)
class Job:
    workload: str
    index: int
    kind: str
    params: dict      # flat SystemParams fields
    grid: dict        # CLI grid fields, or the oracle run settings
    extra: dict       # k_value for spectra, demod_delta for the oracle

    @property
    def items(self) -> int:
        """Detuning points, parameter points, or requested integrator steps."""
        if "n_points" in self.grid:
            return int(self.grid["n_points"])
        return int(round(self.grid["t_max"] / self.grid["dt"]))

    def config_text(self) -> str:
        """The CLI configuration file, byte-identical for one seed."""
        return json.dumps({**self.params, **self.grid}, sort_keys=True, indent=1) + "\n"


def kind_of(workload: str, index: int) -> str:
    pattern = WORKLOADS[workload]
    return pattern[index % len(pattern)]


def make_job(workload: str, seed: int, index: int) -> Job:
    kind = kind_of(workload, index)
    spec = KINDS[kind]
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], index])
    for _ in range(MAX_REDRAWS):
        params, extra = _draw(rng, spec)
        if _accept(kind, spec, params):
            return Job(workload, index, kind, params, dict(spec["grid"]), extra)
    raise RuntimeError(f"no acceptable {kind} draw in {MAX_REDRAWS} tries")


def warmup_jobs(workload: str) -> list[Job]:
    """One small, seed-independent job per kind of the workload."""
    pattern = WORKLOADS[workload]
    jobs = []
    for kind in dict.fromkeys(pattern):
        job = make_job(workload, WARMUP_SEED, pattern.index(kind))
        grid = dict(job.grid)
        if "n_points" in grid:
            grid["n_points"] = WARMUP_POINTS
        else:
            grid["t_max"] = WARMUP_T_MAX[kind]
        jobs.append(replace(job, index=-1 - len(jobs), grid=grid))
    return jobs


def _base_params(name) -> dict:
    if name is None:
        return dict(_ORACLE_BASE)
    from yprobe.presets import get_preset
    return get_preset(name).params.to_dict()


def _draw(rng, spec) -> tuple[dict, dict]:
    bases = spec["bases"]
    params = _base_params(bases[int(rng.integers(len(bases)))])
    extra = {}
    for key, (lo, hi) in spec["draws"].items():
        value = float(rng.uniform(lo, hi))
        if key in ("k_value", "demod_delta"):
            extra[key] = value
        elif key == "Omega_scale":
            params["Omega2"] *= value
            params["Omega3"] *= value
        elif key.endswith("_scale"):
            params[key[: -len("_scale")]] *= value
        else:
            params[key] = value
    if spec.get("lock"):
        params.update(Omega3=params["Omega2"], Delta2=0.0, Delta3=0.0,
                      W12=-math.sqrt(params["Omega2"] ** 2 + params["Omega2"] ** 2))
    return params, extra


def settle_time(params: dict) -> float:
    """25 / min|Re lambda(M0)|, the settle time acceptance 6 integrates for."""
    from yprobe.liouvillian import build_for
    from yprobe.params import SystemParams
    ev = np.linalg.eigvals(build_for(SystemParams.from_dict(params)).m0)
    rates = -ev.real[ev.real < -1e-12]
    return math.inf if rates.size < len(ev) else 25.0 / rates.min()


def _settle_points(spec, params: dict) -> list[dict]:
    where = spec["settle_at"]
    if where == "pump":
        return [dict(params, Omega1=0.0, Delta2=d2, Delta3=-d2)
                for d2 in (spec["grid"]["delta2_min"], 0.0, spec["grid"]["delta2_max"])]
    if where == "interference":
        return [dict(params, theta_deg=t) for t in (0.0, 90.0)]
    return [params]


def _accept(kind: str, spec, params: dict) -> bool:
    if any(settle_time(p) > spec["settle_cap"] for p in _settle_points(spec, params)):
        return False
    if kind == "oracle":
        from yprobe import oracle
        from yprobe.liouvillian import build_for
        from yprobe.params import SystemParams
        p = SystemParams.from_dict(params)
        return ORACLE_RUN["dt"] <= 0.9 * oracle.max_stable_dt(build_for(p), p.Omega1)
    return True


@dataclass
class JobOutput:
    ok: bool                      # the call returned without an error
    error: str = ""
    files: dict | None = None     # CSV outputs of CLI jobs
    stdout: str = ""
    arrays: dict | None = None    # in-memory outputs of library jobs


def cli_argv(job: Job, workdir: Path) -> tuple[list, dict]:
    """Write the job's config file; return the CLI argv and its output files."""
    cfg = workdir / f"job{job.index}.json"
    cfg.write_text(job.config_text())
    out = workdir / f"job{job.index}.csv"
    argv = [KINDS[job.kind]["command"], "--config", str(cfg), "--out", str(out)]
    files = {"csv": out}
    if job.kind.startswith("spectrum"):
        argv += ["--k-value", repr(job.extra["k_value"])]
    elif job.kind == "pump":
        files = {"populations": out.with_name(out.stem + "_populations.csv"),
                 "coherences": out.with_name(out.stem + "_coherences.csv")}
    elif job.kind == "dressed":
        argv.append("--oracle-check")
    return argv, files


def run_cli(argv: list, files: dict) -> JobOutput:
    """One in-process CLI call; stdout and stderr are captured, not printed."""
    from yprobe import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return JobOutput(code == 0, err.getvalue().strip(), files, out.getvalue())


def run_oracle(job: Job) -> JobOutput:
    """Probe-on trajectory plus demodulation of the rho13 harmonic."""
    from yprobe import liouvillian, oracle, params
    p = params.SystemParams.from_dict(job.params)
    lv = liouvillian.build_for(p)
    cfg = oracle.TrajectoryConfig(
        t_max=job.grid["t_max"], dt=job.grid["dt"],
        initial=np.zeros(lv.dim, dtype=complex),
        demod_delta=job.extra["demod_delta"], store_every=job.grid["store_every"])
    times, states = oracle.integrate_full(lv, p, cfg)
    harmonic = oracle.demodulate(times, states[:, lv.labels.index("13")],
                                 job.extra["demod_delta"], p.Phi, p.Omega1,
                                 window=job.grid["window"])
    return JobOutput(True, arrays={"states": states, "harmonic": complex(harmonic)})
