import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from yprobe import dressed, floquet, oracle
from yprobe.cli import main
from yprobe.liouvillian import build_for
from yprobe.presets import get_preset


def run(*argv):
    return main(list(argv))


class TestProbeSpectrum:
    def test_preset_run_writes_csv_and_config(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run("probe-spectrum", "--preset", "fig3", "--points", "21",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta1,re_chi,im_chi,slope"
        assert len(lines) == 22
        config = json.loads((tmp_path / "fig3.csv.config.json").read_text())
        assert config["n_points"] == 21
        assert config["W12"] == -0.75

    def test_config_round_trip_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        run("probe-spectrum", "--preset", "fig3", "--points", "15",
            "--out", str(first))
        second = tmp_path / "b.csv"
        assert run("probe-spectrum", "--config", str(first) + ".config.json",
                   "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_k_value_adds_velocity_column(self, tmp_path):
        out = tmp_path / "k.csv"
        run("probe-spectrum", "--preset", "fig3", "--points", "3",
            "--k-value", "250", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",c_over_vg")
        assert len(lines[1].split(",")) == 5

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "m.csv"
        run("probe-spectrum", "--preset", "fig3", "--points", "4",
            "--json", "--out", str(out))
        records = json.loads((tmp_path / "m.csv.json").read_text())
        assert len(records) == 4
        assert set(records[0]) == {"delta1", "re_chi", "im_chi", "slope"}

    def test_v_system_preset(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run("probe-spectrum", "--preset", "fig5b", "--points", "5",
                   "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 6


class TestErrorHandling:
    def test_unknown_config_key_fails_with_json_record(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        data = get_preset("fig3").params.to_dict()
        data.update(delta1_min=-1.0, delta1_max=1.0, n_points=3, typo_key=1)
        cfg.write_text(json.dumps(data))
        assert run("probe-spectrum", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert "typo_key" in record["message"]

    @pytest.mark.parametrize("value", ["1", None, True])
    def test_non_real_parameter_fails_with_json_record(self, tmp_path, capsys, value):
        cfg = write_small_config(tmp_path / "input.json", "probe-spectrum")
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), gamma1=value)))
        out = tmp_path / "x.csv"
        assert run("probe-spectrum", "--config", str(cfg), "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert record["message"].startswith("gamma1 must be a real number")
        assert not out.exists()

    @pytest.mark.parametrize("edit,words", [
        (lambda data: [], ["JSON object", "list"]),
        (lambda data: 5, ["JSON object", "int"]),
        (lambda data: {k: v for k, v in data.items() if k not in ("gamma1", "W12")},
         ["missing", "gamma1", "W12"]),
        (lambda data: dict(data, system_kind="Z"), ["system_kind", "'Z'"]),
    ], ids=["list", "number", "missing_fields", "unknown_system_kind"])
    def test_malformed_config_fails_with_json_record(self, tmp_path, capsys, edit, words):
        cfg = write_small_config(tmp_path / "input.json", "probe-spectrum")
        cfg.write_text(json.dumps(edit(json.loads(cfg.read_text()))))
        out = tmp_path / "x.csv"
        assert run("probe-spectrum", "--config", str(cfg), "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert all(word in record["message"] for word in words), record["message"]
        assert not out.exists()

    def test_requires_preset_or_config(self, tmp_path, capsys):
        assert run("probe-spectrum", "--out", str(tmp_path / "x.csv")) == 1
        assert "preset" in json.loads(capsys.readouterr().err)["message"]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        assert run("probe-spectrum", "--preset", "fig3", "--points", "0",
                   "--out", str(tmp_path / "x.csv")) == 1
        assert "non-empty" in json.loads(capsys.readouterr().err)["message"]

    def test_dressed_evolve_rejects_unlocked_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "unlocked.json"
        data = get_preset("fig7").params.to_dict()
        data.update(W12=4.0, t_max=10.0, dt=0.01, store_every=1)
        cfg.write_text(json.dumps(data))
        assert run("dressed-evolve", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")) == 1
        assert "W12" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("extra", [[], ["--oracle-check"]])
    def test_dressed_evolve_rejects_span_of_zero_steps(self, tmp_path, capsys, extra):
        cfg = tmp_path / "short.json"
        data = get_preset("fig7").params.to_dict()
        data.update(t_max=0.004, dt=0.01, store_every=1)
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert run("dressed-evolve", "--config", str(cfg), *extra, "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert "t_max" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--oracle-check"]])
    def test_dressed_evolve_rejects_v_system(self, tmp_path, capsys, extra):
        # every lock condition holds, but the secular picture is the Y system's
        cfg = tmp_path / "v.json"
        data = get_preset("fig5b").params.to_dict()
        data.update(Omega2=0.0, W12=0.0, t_max=10.0, dt=0.01, store_every=1)
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert run("dressed-evolve", "--config", str(cfg), *extra, "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert "system_kind" in record["message"]
        assert not out.exists()


    @pytest.mark.parametrize("command,key,value", [
        ("dressed-evolve", "store_every", 0),
        ("dressed-evolve", "store_every", -3),
        ("dressed-evolve", "store_every", 2.5),
        ("probe-spectrum", "n_points", 2.5),
        ("probe-spectrum", "n_points", True),
    ])
    def test_integer_grid_fields(self, tmp_path, capsys, command, key, value):
        cfg = write_small_config(tmp_path / "input.json", command)
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **{key: value})))
        assert run(command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert key in record["message"]


    @pytest.mark.parametrize("command,key,value", [
        ("probe-spectrum", "delta1_min", float("nan")),
        ("dressed-evolve", "t_max", -1.0),
        ("dressed-evolve", "dt", float("nan")),
        ("pump-sweeps", "delta2_max", float("inf")),
    ])
    def test_float_grid_fields(self, tmp_path, capsys, command, key, value):
        cfg = write_small_config(tmp_path / "input.json", command)
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **{key: value})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy warning ahead of the record
            assert run(command, "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv")) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert key in record["message"]

    @pytest.mark.parametrize("flag,config_value", [
        (["--k-value", "nan"], None),
        (["--k-value", "inf"], None),
        ([], "250"),
        ([], True),
    ])
    def test_k_value_must_be_a_finite_number(self, tmp_path, capsys, flag, config_value):
        cfg = write_small_config(tmp_path / "input.json", "probe-spectrum")
        if config_value is not None:
            cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), k_value=config_value)))
        out = tmp_path / "x.csv"
        assert run("probe-spectrum", "--config", str(cfg), *flag, "--out", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParameterError"
        assert "k_value" in record["message"]
        assert not out.exists() and not (tmp_path / "x.csv.config.json").exists()


class TestOtherCommands:
    def test_interference_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("interference-sweep", "--preset", "fig4", "--points", "5",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,slope_normalized"
        assert len(lines) == 6
        assert float(lines[1].split(",")[0]) == 0.0

    def test_pump_sweeps_writes_two_files(self, tmp_path):
        out = tmp_path / "pump.csv"
        assert run("pump-sweeps", "--preset", "fig8", "--points", "3",
                   "--out", str(out)) == 0
        pops = (tmp_path / "pump_populations.csv").read_text().splitlines()
        cohs = (tmp_path / "pump_coherences.csv").read_text().splitlines()
        assert pops[0] == "delta2,rho11,rho22,rho33"
        assert cohs[0] == "delta2,re_rho23,im_rho23,re_rho34,im_rho34"
        assert len(pops) == len(cohs) == 4

    def test_pump_sweeps_on_a_v_system(self, tmp_path):
        cfg = write_config(tmp_path / "v.json", V_PUMP_RUN)
        out = tmp_path / "pump.csv"
        assert run("pump-sweeps", "--config", str(cfg), "--out", str(out)) == 0
        pops = (tmp_path / "pump_populations.csv").read_text().splitlines()
        cohs = (tmp_path / "pump_coherences.csv").read_text().splitlines()
        assert pops[0] == "delta2,rho11,rho22"
        assert cohs[0] == "delta2,re_rho23,im_rho23"
        assert len(pops) == len(cohs) == 8
        assert (tmp_path / "pump.csv.config.json").exists()

    def test_dressed_evolve_summary_and_oracle_column(self, tmp_path, capsys):
        cfg = tmp_path / "evolve.json"
        data = get_preset("fig7").params.to_dict()
        data.update(t_max=300.0, dt=0.01, store_every=10)
        cfg.write_text(json.dumps(data))
        out = tmp_path / "evolve.csv"
        assert run("dressed-evolve", "--config", str(cfg), "--oracle-check",
                   "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steady"]["rho11"] > 0.5
        assert abs(summary["steady"]["rho11"] - summary["full_me_rho11_steady"]) \
            < 0.15 * summary["full_me_rho11_steady"]
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",rho11_full")
        # secular and full trajectories track each other on the way up too
        last = lines[-1].split(",")
        assert abs(float(last[1]) - float(last[-1])) < 0.1

    def test_oracle_check_keeps_its_step_within_the_stability_bound(self, tmp_path):
        # dt is 1.26x the oracle's stability bound: two substeps per sample are
        # needed, and a rounded count would give one
        cfg = tmp_path / "evolve.json"
        cfg.write_text(json.dumps(dict(get_preset("fig7").params.to_dict(),
                                       t_max=1.0, dt=0.00445, store_every=1)))
        out = tmp_path / "evolve.csv"
        assert run("dressed-evolve", "--config", str(cfg), "--oracle-check",
                   "--out", str(out)) == 0
        assert out.read_text().splitlines()[0].endswith(",rho11_full")

    def test_dump_liouvillian(self, tmp_path):
        out = tmp_path / "lv.json"
        assert run("dump-liouvillian", "--preset", "fig2b",
                   "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["labels"]) == 15
        assert len(data["m0"]) == 15 and len(data["m0"][0]) == 15
        assert data["sigma"][8] == [0.0, -get_preset("fig2b").params.Omega3]


# One small configuration per subcommand, and the flags each one owns.
SMALL_RUNS = {
    "probe-spectrum": ("fig3", {"delta1_min": -1.0, "delta1_max": 1.0, "n_points": 7}),
    "interference-sweep": ("fig4", {"p_min": 0.0, "p_max": 1.0, "n_points": 7}),
    "pump-sweeps": ("fig8", {"delta2_min": -1.0, "delta2_max": 1.0, "n_points": 7}),
    "dressed-evolve": ("fig7", {"t_max": 20.0, "dt": 0.01, "store_every": 10}),
    "dump-liouvillian": ("fig2b", {}),
}
FLAGS = {"--points": ["5"], "--k-value": ["250"], "--oracle-check": [], "--json": []}
OWN_FLAGS = {
    "probe-spectrum": {"--points", "--k-value", "--json"},
    "interference-sweep": {"--points", "--json"},
    "pump-sweeps": {"--points", "--json"},
    "dressed-evolve": {"--oracle-check", "--json"},
    "dump-liouvillian": set(),
}


# The reduced V system under a pump sweep: no preset has this grid.
V_PUMP_RUN = ("fig5b", SMALL_RUNS["pump-sweeps"][1])


def write_config(path, run_spec):
    preset, grid = run_spec
    path.write_text(json.dumps({**get_preset(preset).params.to_dict(), **grid}))
    return path


def write_small_config(path, command):
    return write_config(path, SMALL_RUNS[command])


def outputs(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_every_flag_round_trips(self, tmp_path, command, flag):
        cfg = write_small_config(tmp_path / "input.json", command)
        argv = [command, "--config", str(cfg), flag, *FLAGS[flag]]
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        if flag not in OWN_FLAGS[command]:
            with pytest.raises(SystemExit):
                run(*argv, "--out", str(first / "out.csv"))
            return
        assert run(*argv, "--out", str(first / "out.csv")) == 0
        # --json chooses the output format only, so it is repeated; every
        # other flag must come back from the emitted configuration alone.
        rerun = ["--json"] if flag == "--json" else []
        assert run(command, "--config", str(first / "out.csv.config.json"), *rerun,
                   "--out", str(second / "out.csv")) == 0
        assert outputs(first) == outputs(second)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = write_small_config(tmp_path / "input.json", "probe-spectrum")
        data = json.loads(cfg.read_text())
        cfg.write_text(json.dumps(dict(data, k_value=100.0, n_points=3)))
        out = tmp_path / "k.csv"
        assert run("probe-spectrum", "--config", str(cfg), "--k-value", "250",
                   "--points", "4", "--out", str(out)) == 0
        emitted = json.loads((tmp_path / "k.csv.config.json").read_text())
        assert emitted["k_value"] == 250.0 and emitted["n_points"] == 4
        row = [float(v) for v in out.read_text().splitlines()[1].split(",")]
        assert row[4] == 1.0 + 250.0 * row[3]

    def test_oracle_check_must_be_boolean(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path / "input.json", "dressed-evolve")
        data = json.loads(cfg.read_text())
        cfg.write_text(json.dumps(dict(data, oracle_check="false")))
        assert run("dressed-evolve", "--config", str(cfg),
                   "--out", str(tmp_path / "e.csv")) == 1
        assert "oracle_check" in json.loads(capsys.readouterr().err)["message"]


def read_columns(path):
    """CSV columns by header name, parsed back to floats; the --json mirror must hold
    the same rows."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    records = json.loads(Path(str(path) + ".json").read_text())
    assert records == [dict(zip(header, row)) for row in rows]
    return {name: np.array(column) for name, column in zip(header, zip(*rows))}


def assert_columns(path, expected):
    """Each column equals, bit for bit, the library array its header names."""
    got = read_columns(path)
    assert list(got) == list(expected)
    for name, want in expected.items():
        assert np.array_equal(got[name], want), name


class TestColumnsMatchLibrary:
    """Full-precision CSV round-trips, so the written columns equal the arrays exactly."""

    def _run(self, tmp_path, command, run_spec, *flags):
        cfg = write_config(tmp_path / "input.json", run_spec)
        out = tmp_path / "out.csv"
        assert run(command, "--config", str(cfg), "--json", *flags, "--out", str(out)) == 0
        preset, grid = run_spec
        return out, get_preset(preset).params, grid

    def test_probe_spectrum(self, tmp_path):
        out, params, grid = self._run(tmp_path, "probe-spectrum", SMALL_RUNS["probe-spectrum"],
                                      "--k-value", "250")
        delta1 = np.linspace(grid["delta1_min"], grid["delta1_max"], grid["n_points"])
        chi, slope = floquet.probe_spectrum(params, delta1)
        assert_columns(out, {"delta1": delta1, "re_chi": chi.real, "im_chi": chi.imag,
                             "slope": slope,
                             "c_over_vg": floquet.group_velocity_ratio(slope, 250.0)})

    def test_interference_sweep(self, tmp_path):
        out, params, grid = self._run(tmp_path, "interference-sweep",
                                      SMALL_RUNS["interference-sweep"])
        p = np.linspace(grid["p_min"], grid["p_max"], grid["n_points"])
        assert_columns(out, {"p": p, "slope_normalized": floquet.interference_sweep(params, p)})

    def test_pump_sweeps(self, tmp_path):
        out, params, grid = self._run(tmp_path, "pump-sweeps", SMALL_RUNS["pump-sweeps"])
        d2 = np.linspace(grid["delta2_min"], grid["delta2_max"], grid["n_points"])
        rho = floquet.pump_sweep(params, d2)
        assert_columns(tmp_path / "out_populations.csv",
                       {"delta2": d2, "rho11": rho[:, 0, 0].real, "rho22": rho[:, 1, 1].real,
                        "rho33": rho[:, 2, 2].real})
        assert_columns(tmp_path / "out_coherences.csv",
                       {"delta2": d2, "re_rho23": rho[:, 1, 2].real,
                        "im_rho23": rho[:, 1, 2].imag, "re_rho34": rho[:, 2, 3].real,
                        "im_rho34": rho[:, 2, 3].imag})

    def test_pump_sweeps_v_system(self, tmp_path):
        out, params, grid = self._run(tmp_path, "pump-sweeps", V_PUMP_RUN)
        d2 = np.linspace(grid["delta2_min"], grid["delta2_max"], grid["n_points"])
        rho = floquet.pump_sweep(params, d2)
        assert rho.shape[1:] == (3, 3)
        assert_columns(tmp_path / "out_populations.csv",
                       {"delta2": d2, "rho11": rho[:, 0, 0].real, "rho22": rho[:, 1, 1].real})
        assert_columns(tmp_path / "out_coherences.csv",
                       {"delta2": d2, "re_rho23": rho[:, 1, 2].real,
                        "im_rho23": rho[:, 1, 2].imag})

    def test_dressed_evolve_with_oracle_check(self, tmp_path, capsys):
        out, params, grid = self._run(tmp_path, "dressed-evolve", SMALL_RUNS["dressed-evolve"],
                                      "--oracle-check")
        summary = json.loads(capsys.readouterr().out)
        table = dressed.secular_table_from_params(params)
        times, states = dressed.evolve_secular(table, dressed.MIDDLE_STATE,
                                               grid["t_max"], grid["dt"])
        step = grid["store_every"]
        # the oracle's bare rho11 from |3>, sampled every dt * step in whole
        # stable substeps and interpolated onto the secular times
        pumps = params.with_(Omega1=0.0)
        lv = build_for(pumps)
        init = np.zeros(lv.dim, dtype=complex)
        init[lv.index("33")] = 1.0
        n_per = math.ceil(grid["dt"] * step / oracle.max_stable_dt(lv, 0.0))
        cfg = oracle.TrajectoryConfig(t_max=grid["t_max"], dt=grid["dt"] * step / n_per,
                                      initial=init, store_every=n_per)
        t_full, s_full = oracle.integrate_full(lv, pumps, cfg)
        names = ["rho11", "rho_pp", "rho_mm", "rho_dd", "rho_1m"]
        assert_columns(out, {"t": times[::step],
                             **{name: states[::step, k] for k, name in enumerate(names)},
                             "rho11_full": np.interp(times[::step], t_full,
                                                     s_full[:, 0].real)})
        steady = dressed.secular_steady_state(table)
        assert summary["steady"] == dict(zip(names, steady.tolist()))
        assert summary["full_me_rho11_steady"] == floquet.steady_state(lv)[0].real
