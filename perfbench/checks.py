"""Independent output checks, run outside the timed window.

References are computed with plain `numpy.linalg.solve` on the matrices of
the public `yprobe.liouvillian.build_for`, never through `yprobe.floquet`
or `yprobe.linalg`.  Each check returns a `Verdict` whose `errors` feed the
traced run's `check.*` metrics and whose `failures` make the job count as
failed.  `values` holds the numeric outputs saved in the run's dump.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# chi, populations and coherences: both sides are one LU solve in double
# precision, so they agree to ~1e-13; this leaves room for reordering only.
RTOL_SOLVE = 1e-8
# relative errors are taken against max(|reference|, floor * scale)
REL_FLOOR = 1e-3
# Slope: the CLI's central difference with step H_FD differs from the exact
# resolvent derivative by sum_k h^2k/(2k+1)! chi^(2k+1).  The tolerance is
# twice the first three terms of that series, plus ATOL_SLOPE * (1 + |slope|),
# so it accepts both today's h = 1e-3 difference and an exact slope.
H_FD = 1e-3
ATOL_SLOPE = 1e-7
RTOL_ORACLE = 0.01
TOL_HERMITIAN = 1e-8
TOL_POPULATION = 1e-8
TOL_POP_DRIFT = 1e-9
SAMPLE_ROWS = 16


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def record(self, name: str, error: float, limit: float) -> None:
        """Keep the worst error seen under `name`; fail when it exceeds limit."""
        error = float(error)
        self.errors[name] = max(self.errors.get(name, 0.0), error)
        if not error <= limit:
            self.failures.append(f"{name} = {error:.3e} > {limit:.1e}")

    @property
    def ok(self) -> bool:
        return not self.failures


def _system(params: dict):
    from yprobe.liouvillian import build_for
    from yprobe.params import SystemParams
    return build_for(SystemParams.from_dict(params))


def _rel(got, want, scale: float) -> np.ndarray:
    want = np.asarray(want)
    return np.abs(np.asarray(got) - want) / np.maximum(np.abs(want), REL_FLOOR * scale)


def _sample_rows(n: int, rng, anchor: int) -> np.ndarray:
    rows = rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False)
    return np.unique(np.append(rows, anchor))


def _read_csv(path) -> tuple[list, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class _Resolvent:
    """Plain-numpy first-order probe response: chi and its exact derivatives."""

    def __init__(self, params: dict):
        lv = _system(params)
        self.lv = lv
        self.gamma2 = params["gamma2"]
        self.shift = params["W12"] - params["Delta2"]   # delta = Delta1 - Delta2 + W12
        self.i13 = lv.labels.index("13")
        self.r0 = np.linalg.solve(lv.m0, lv.sigma)
        self.b = lv.sigma1 - lv.m1 @ self.r0

    def derivatives(self, delta1: float, orders: int) -> list:
        """[chi, chi', ..., chi^(orders)] in Delta1, from powers of the resolvent.

        d^n/d delta^n (M0 + i delta)^-1 = n! (-i)^n (M0 + i delta)^-(n+1).
        """
        a = self.lv.m0 + 1j * (delta1 + self.shift) * np.eye(self.lv.dim)
        y, out = self.b, []
        for n in range(orders + 1):
            y = np.linalg.solve(a, y)
            out.append(self.gamma2 * math.factorial(n) * (-1j) ** n * y[self.i13])
        return out

    def slope_and_tolerance(self, delta1: float) -> tuple[float, float]:
        d = self.derivatives(delta1, 7)
        exact = d[1].real
        series = sum(H_FD ** (2 * k) / math.factorial(2 * k + 1) * abs(d[2 * k + 1])
                     for k in (1, 2, 3))
        return exact, 2.0 * series + ATOL_SLOPE * (1.0 + abs(exact))


def check_spectrum(job, files, rng) -> Verdict:
    v = Verdict()
    header, data = _read_csv(files["csv"])
    grid = job.grid
    _expect_rows(v, data, grid["n_points"])
    d1 = data[:, 0]
    chi = data[:, 1] + 1j * data[:, 2]
    slope = data[:, 3]
    v.values.update(delta1=d1, chi=chi, slope=slope)
    want_d1 = np.linspace(grid["delta1_min"], grid["delta1_max"], grid["n_points"])
    v.record("grid", np.abs(d1 - want_d1).max(), 0.0)
    res = _Resolvent(job.params)
    scale = np.abs(chi).max()
    for row in _sample_rows(len(d1), rng, int(np.argmin(np.abs(d1)))):
        v.record("chi", _rel(chi[row], res.derivatives(d1[row], 0)[0], scale), RTOL_SOLVE)
        exact, tol = res.slope_and_tolerance(d1[row])
        v.record("slope_over_tol", abs(slope[row] - exact) / tol, 1.0)
    k = job.extra["k_value"]
    if header[-1] != "c_over_vg":
        v.failures.append("c_over_vg column missing")
    else:
        v.record("c_over_vg", _rel(data[:, 4], 1.0 + k * slope, 1.0).max(), 1e-12)
    return v


def check_pump(job, files, rng) -> Verdict:
    v = Verdict()
    _, pops = _read_csv(files["populations"])
    _, cohs = _read_csv(files["coherences"])
    for data in (pops, cohs):
        _expect_rows(v, data, job.grid["n_points"])
    d2 = pops[:, 0]
    coherences = np.stack([cohs[:, 1] + 1j * cohs[:, 2], cohs[:, 3] + 1j * cohs[:, 4]], 1)
    v.values.update(delta2=d2, populations=pops[:, 1:], coherences=coherences)
    v.record("grid", np.abs(cohs[:, 0] - d2).max(), 0.0)
    for row in _sample_rows(len(d2), rng, int(np.argmin(np.abs(d2)))):
        lv = _system(dict(job.params, Omega1=0.0, Delta2=d2[row], Delta3=-d2[row]))
        r0 = np.linalg.solve(lv.m0, lv.sigma)
        want = [r0[lv.labels.index(x)] for x in ("11", "22", "33", "23", "34")]
        got = np.concatenate([pops[row, 1:], coherences[row]])
        v.record("rho", _rel(got, want, 1.0).max(), RTOL_SOLVE)
    return v


def check_interference(job, files, rng) -> Verdict:
    v = Verdict()
    _, data = _read_csv(files["csv"])
    _expect_rows(v, data, job.grid["n_points"])
    p, slope = data[:, 0], data[:, 1]
    v.values.update(p=p, slope=slope)
    for row in _sample_rows(len(p), rng, len(p) - 1):
        theta = float(np.degrees(np.arccos(p[row])))
        exact, tol = _Resolvent(dict(job.params, theta_deg=theta)).slope_and_tolerance(0.0)
        v.record("slope_over_tol", abs(slope[row] - exact) / tol, 1.0)
    return v


def check_dressed(job, files, stdout: str) -> Verdict:
    v = Verdict()
    header, data = _read_csv(files["csv"])
    grid = job.grid
    steps = int(round(grid["t_max"] / grid["dt"]))
    _expect_rows(v, data, len(range(0, steps + 1, grid["store_every"])))
    pops = data[:, 1:5]
    v.values.update(t=data[:, 0], populations=pops)
    v.record("pop_drift", np.abs(pops.sum(axis=1) - 1.0).max(), TOL_POP_DRIFT)
    if "rho11_full" not in header or not np.all(np.isfinite(data[:, -1])):
        v.failures.append("rho11_full column missing or not finite")
    summary = json.loads(stdout.strip().splitlines()[-1])

    from yprobe import dressed
    from yprobe.params import SystemParams
    g = dressed.secular_table_from_params(SystemParams.from_dict(job.params)).matrix()
    g[3] = [1.0, 1.0, 1.0, 1.0, 0.0]          # trace row replaces a population row
    want = np.linalg.solve(g, np.eye(5)[3])
    got = [summary["steady"][name] for name in header[1:6]]
    v.record("rho", _rel(got, want, 1.0).max(), RTOL_SOLVE)
    lv = _system(dict(job.params, Omega1=0.0))
    r0 = np.linalg.solve(lv.m0, lv.sigma)
    v.record("rho", _rel(summary["full_me_rho11_steady"], r0[0].real, 1.0), RTOL_SOLVE)
    return v


def check_oracle(job, arrays) -> Verdict:
    v = Verdict()
    res = _Resolvent(job.params)
    delta = job.extra["demod_delta"]
    want = np.linalg.solve(res.lv.m0 + 1j * delta * np.eye(res.lv.dim), res.b)[res.i13]
    got = arrays["harmonic"]
    v.values.update(harmonic=np.array([got]))
    v.record("oracle", abs(got - want) / abs(want), RTOL_ORACLE)
    states = arrays["states"]
    stored = 1 + math.ceil(job.items / job.grid["store_every"])   # initial + last step
    if len(states) != stored:
        v.failures.append(f"expected {stored} stored states, got {len(states)}")
    rho = reconstruct(states, res.lv.labels)
    check_density(v, rho)
    return v


def check_density(v: Verdict, rho: np.ndarray) -> None:
    """Hermiticity, and populations within [0, 1].  The trace is not checked:
    `reconstruct` makes it 1 by construction, so the rebuilt last population
    carries any error of the others and the population range catches it."""
    v.record("hermitian", np.abs(rho - np.conj(np.swapaxes(rho, 1, 2))).max(), TOL_HERMITIAN)
    pops = np.diagonal(rho, axis1=1, axis2=2).real
    v.record("population_range", max(0.0, -pops.min(), pops.max() - 1.0), TOL_POPULATION)


def reconstruct(states: np.ndarray, labels) -> np.ndarray:
    """Density matrices from stacked element vectors; the eliminated last
    population is restored from the trace condition."""
    size = max(int(c) for label in labels for c in label)
    rho = np.zeros((len(states), size, size), dtype=complex)
    for k, label in enumerate(labels):
        rho[:, int(label[0]) - 1, int(label[1]) - 1] = states[:, k]
    rho[:, size - 1, size - 1] = 1.0 - np.trace(rho, axis1=1, axis2=2)
    return rho


def _expect_rows(v: Verdict, data: np.ndarray, n: int) -> None:
    if len(data) != n or not np.all(np.isfinite(data)):
        v.failures.append(f"expected {n} finite rows, got {len(data)}")


def check(job, output, seed: int) -> Verdict:
    """Run the check that matches the job's kind."""
    if not output.ok:
        return Verdict(failures=[f"job raised: {output.error}"])
    rng = np.random.default_rng([seed, job.index, 7])
    if job.kind.startswith("spectrum"):
        return check_spectrum(job, output.files, rng)
    if job.kind == "pump":
        return check_pump(job, output.files, rng)
    if job.kind == "interference":
        return check_interference(job, output.files, rng)
    if job.kind == "dressed":
        return check_dressed(job, output.files, output.stdout)
    return check_oracle(job, output.arrays)
