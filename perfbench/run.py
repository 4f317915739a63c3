"""yprobe benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; yprobe is imported from `src/`.
One client runs jobs back to back (a closed loop) in this process, in
whole rounds of the workload's kind pattern, until the timed job time
reaches --seconds.  Every job's output is checked outside the timed window.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
rounds, each job once untraced and once traced, and prints the per-layer
metrics; its counts repeat exactly for one seed and --seconds.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A run record, the traced spans and a dump of the
first round's numeric outputs are written under `.perfbench_out/`; compare
two dumps with `perfbench/compare.py`.
"""

import os

# BLAS is pinned to one thread before numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# Seconds one round of each workload takes untraced on the reference host
# (2 cores, BLAS at 1 thread).  A traced run does ceil(seconds / (2 * this))
# rounds, each job untraced and traced, so it lasts about --seconds there.
NOMINAL_ROUND_S = {"steady": 2.6, "dynamics": 2.4}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_yprobe():
    """Import yprobe from this checkout's src/, and from nowhere else."""
    if not (SRC / "yprobe" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no yprobe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import yprobe
    if Path(yprobe.__file__).resolve().parent != SRC / "yprobe":
        raise SystemExit(f"perfbench: imported yprobe from {yprobe.__file__}, not {SRC}")
    return yprobe


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def execute(job, workdir: Path, tracer=None):
    """Run one job; returns (wall seconds, JobOutput).  Only the call is timed."""
    if job.kind == "oracle":
        call, call_args = workloads.run_oracle, (job,)
    else:
        call, call_args = workloads.run_cli, workloads.cli_argv(job, workdir)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = call(*call_args)
        else:
            with tracer.span(f"job.{job.kind}"):
                output = call(*call_args)
    except Exception as exc:  # a failing job is counted, not fatal
        output = workloads.JobOutput(False, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, output


def setup_probe(args) -> None:
    """The set-up a user pays: imports, config generation, warm-up jobs."""
    import_yprobe()
    workdir = OUT / f"setup-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for index in range(len(workloads.WORKLOADS[args.workload])):
            job = workloads.make_job(args.workload, args.seed, index)
            (workdir / f"config{index}.json").write_text(job.config_text())
        for job in workloads.warmup_jobs(args.workload):
            _, output = execute(job, workdir)
            if not output.ok:
                raise SystemExit(f"perfbench: warm-up job failed: {output.error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)


def measure_setup(args) -> float:
    """Wall time from starting a fresh process to its first timed job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {err.strip()}")
    return elapsed


def tail_percentile(times: list) -> tuple:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(times) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(times, q))
    return None, None


def run_untraced(args, workdir: Path, record: dict) -> dict:
    for job in workloads.warmup_jobs(args.workload):
        execute(job, workdir)

    # Set-up samples are spread over the run (after 0, 1/4, ... of the timed
    # time, and at the end), so they see the same drift of host speed as
    # the jobs do.
    samples = []
    pattern = workloads.WORKLOADS[args.workload]
    times = {"a": [], "b": []}
    total_s, items, failed, index = 0.0, 0, 0, 0
    while not total_s >= args.seconds:
        if len(samples) < SETUP_SAMPLES - 1 and \
                total_s >= len(samples) * args.seconds / (SETUP_SAMPLES - 1):
            samples.append(measure_setup(args))
        for _ in pattern:
            job = workloads.make_job(args.workload, args.seed, index)
            elapsed, output = execute(job, workdir)
            verdict = checks.check(job, output, args.seed)
            times[workloads.SLOTS[job.kind]].append(elapsed)
            total_s += elapsed
            items += job.items if verdict.ok else 0
            failed += not verdict.ok
            _record_job(record, job, elapsed, verdict, output)
            index += 1
    while len(samples) < SETUP_SAMPLES:
        samples.append(measure_setup(args))
    record["setup_samples_s"] = samples

    attempted = index
    metrics = {"setup_s": (statistics.median(samples), "s")}
    # One mean per slot: the slots' times do not overlap, so a figure over
    # the whole mix would only ever see one of them.  The host's speed
    # switches between a fast and a slow state, and a median of such times
    # jumps between the two; the mean moves with the share of time in each.
    for slot, slot_times in times.items():
        kinds = sorted({k for k in pattern if workloads.SLOTS[k] == slot})
        mean = statistics.fmean(slot_times)
        p50 = statistics.median(slot_times)
        q, tail = tail_percentile(slot_times)
        record[f"job_s_{slot}"] = {"kinds": kinds, "mean": mean, "p50": p50,
                                   "tail_percentile": q, "tail": tail,
                                   "samples": len(slot_times)}
        metrics[f"job_s_mean_{slot}"] = (mean, "s")
        tail_text = f"p{q:g} = {tail:.4f} s" if q is not None else "no tail with 10 samples"
        print(f"job_s_{slot} ({', '.join(kinds)}): mean = {mean:.4f} s, p50 = {p50:.4f} s, "
              f"{tail_text} ({len(slot_times)} jobs; p50 and tail not gated)")
    metrics.update({
        "items_per_s": (items / total_s, "items/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _counters() -> dict:
    def arg(args, kwargs, pos, name):
        return kwargs[name] if name in kwargs else args[pos]

    return {
        "oracle.integrate_full": lambda a, k: int(round(
            arg(a, k, 2, "config").t_max / arg(a, k, 2, "config").dt)),
        "dressed.evolve_secular": lambda a, k: int(round(
            arg(a, k, 2, "t_max") / arg(a, k, 3, "dt"))),
    }


def run_traced(args, workdir: Path, record: dict) -> dict:
    for job in workloads.warmup_jobs(args.workload):
        execute(job, workdir)
    tracer = Tracer(counters=_counters())
    traced_dir = workdir / "traced"
    traced_dir.mkdir()
    pattern_len = len(workloads.WORKLOADS[args.workload])
    rounds = max(1, math.ceil(args.seconds / (2.0 * NOMINAL_ROUND_S[args.workload])))
    n_jobs = rounds * pattern_len
    plain_s = traced_s = 0.0
    failed = 0
    worst: dict = {}
    jobs = [workloads.make_job(args.workload, args.seed, index) for index in range(n_jobs)]
    for job in jobs:
        elapsed, plain = execute(job, workdir)
        plain_s += elapsed
        tracer.current_job = job.index
        with tracer.installed():
            elapsed, output = execute(job, traced_dir, tracer)
        traced_s += elapsed
        verdict = checks.check(job, output, args.seed)
        if not _same_output(plain, output):
            verdict.failures.append("traced output differs from untraced output")
        for name, err in verdict.errors.items():
            worst[name] = max(worst.get(name, 0.0), err)
        failed += not verdict.ok
        _record_job(record, job, elapsed, verdict, output)

    tracer.save(OUT / f"spans-{args.workload}-s{args.seed}.npz")
    metrics = layer_metrics(tracer, jobs)
    record["per_kind"] = per_kind_counts(tracer, jobs)
    for kind, c in record["per_kind"].items():
        print(f"{kind}: {c['jobs']} jobs, {c['items']} items, {c['solves']} solves, "
              f"{c['builds']} builds")
    metrics.update({
        "check.max_rel_err_chi": (worst.get("chi", 0.0), "1"),
        "check.max_rel_err_rho": (worst.get("rho", 0.0), "1"),
        "check.max_slope_err_over_tol": (worst.get("slope_over_tol", 0.0), "1"),
        "check.max_herm_err": (worst.get("hermitian", 0.0), "1"),
        "check.max_oracle_rel_err": (worst.get("oracle", 0.0), "1"),
        "check.max_pop_drift": (worst.get("pop_drift", 0.0), "1"),
        "trace.overhead_ratio": (traced_s / plain_s, "1"),
    })
    record["trace"] = {"jobs": n_jobs, "items": sum(job.items for job in jobs),
                       "spans": len(tracer)}
    return {"attempted": n_jobs, "failed": failed, "metrics": metrics}


def layer_metrics(tracer: Tracer, jobs: list) -> dict:
    """Per-layer counts and self times from the recorded spans of `jobs`."""
    items = sum(job.items for job in jobs)
    spans = tracer.arrays()
    names = tracer.names
    ids = spans["name_id"]
    calls = np.bincount(ids, minlength=len(names))
    self_s = np.bincount(ids, weights=spans["self"], minlength=len(names))
    errors = np.bincount(ids, weights=spans["error"], minlength=len(names))

    def pick(*wanted):
        return [k for k, name in enumerate(names) if name in wanted]

    def total(array, ks):
        return float(array[ks].sum()) if ks else 0.0

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        ks = [k for k, name in enumerate(names) if name.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = (int(total(calls, ks)), "count")
        m[f"{layer}.self_s"] = (total(self_s, ks), "s")

    solve = pick("linalg.solve")
    n_solve = int(total(calls, solve))
    m["linalg.solve.calls"] = (n_solve, "count")
    m["linalg.solve.self_s"] = (total(self_s, solve), "s")
    m["linalg.solve.us_per_call"] = (per(total(self_s, solve), n_solve, 1e6), "us")
    m["linalg.solve.errors"] = (int(total(errors, solve)), "count")

    leaf = pick("liouvillian.build_liouvillian", "liouvillian.build_v_liouvillian")
    build = leaf + pick("liouvillian.build_for")
    n_build = int(total(calls, leaf))
    m["liouvillian.build.calls"] = (n_build, "count")
    m["liouvillian.build.self_s"] = (total(self_s, build), "s")
    m["liouvillian.build.us_per_call"] = (per(total(self_s, build), n_build, 1e6), "us")

    under = _under_layer(spans["parent"], ids, names, "floquet")
    m["floquet.solves_per_point"] = (
        per(int((np.isin(ids, solve) & under).sum()), items), "1")
    m["floquet.builds_per_point"] = (
        per(int((np.isin(ids, leaf) & under).sum()), items), "1")

    for prefix, name in (("oracle.integrate", "oracle.integrate_full"),
                         ("dressed.evolve", "dressed.evolve_secular")):
        ks = pick(name)
        steps = tracer.counts[name]
        m[f"{prefix}.calls"] = (int(total(calls, ks)), "count")
        m[f"{prefix}.steps"] = (steps, "count")
        m[f"{prefix}.self_s"] = (total(self_s, ks), "s")
        m[f"{prefix}.us_per_step"] = (per(total(self_s, ks), steps, 1e6), "us")
    m["oracle.demodulate.self_s"] = (total(self_s, pick("oracle.demodulate")), "s")
    return m


def per_kind_counts(tracer: Tracer, jobs: list) -> dict:
    """Jobs, items, linalg solves and generator builds for each job kind."""
    spans = tracer.arrays()
    solve = [k for k, n in enumerate(tracer.names) if n == "linalg.solve"]
    leaf = [k for k, n in enumerate(tracer.names)
            if n in ("liouvillian.build_liouvillian", "liouvillian.build_v_liouvillian")]
    out = {}
    for job in jobs:
        c = out.setdefault(job.kind, {"jobs": 0, "items": 0, "solves": 0, "builds": 0})
        mine = spans["job"] == job.index
        c["jobs"] += 1
        c["items"] += job.items
        c["solves"] += int((mine & np.isin(spans["name_id"], solve)).sum())
        c["builds"] += int((mine & np.isin(spans["name_id"], leaf)).sum())
    return out


def _under_layer(parent: np.ndarray, ids: np.ndarray, names: list, layer: str) -> np.ndarray:
    """True for spans with an ancestor span in `layer`."""
    in_layer = np.array([n.split(".", 1)[0] == layer for n in names] + [False])
    flag = np.zeros(len(parent), dtype=bool)
    cur = parent.copy()
    while (cur >= 0).any():
        flag |= in_layer[np.where(cur >= 0, ids[cur], -1)]
        cur = np.where(cur >= 0, parent[cur], -1)
    return flag


def _same_output(a, b) -> bool:
    if a.ok != b.ok:
        return False
    if a.arrays is not None:
        return all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
    return all(Path(a.files[k]).read_bytes() == Path(b.files[k]).read_bytes()
               for k in a.files)


def _record_job(record: dict, job, elapsed: float, verdict, output) -> None:
    record["jobs"].append({"index": job.index, "kind": job.kind, "seconds": elapsed,
                           "items": job.items, "failures": verdict.failures,
                           "errors": verdict.errors})
    if job.index < len(workloads.WORKLOADS[job.workload]):
        for key, value in verdict.values.items():
            record["dump"][f"job{job.index}.{key}"] = value


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_yprobe()
    record = {"args": vars(args), "env": environment(), "load_start": os.getloadavg(),
              "jobs": [], "dump": {}, "kinds": workloads.KINDS,
              "workloads": workloads.WORKLOADS}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = (run_traced if args.trace else run_untraced)(args, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["load_end"] = os.getloadavg()

    np.savez_compressed(OUT / f"dump-{tag}.npz", **record.pop("dump"))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.pop("metrics").items()}
    record["metrics"] = metrics
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    env = record["env"]
    print(f"env: {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} at "
          f"{env['blas_threads']} thread, load {record['load_start'][0]:.2f} -> "
          f"{record['load_end'][0]:.2f}")
    for job in record["jobs"]:
        if job["failures"]:
            print(f"job {job['index']} ({job['kind']}) failed: {'; '.join(job['failures'])}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
