import functools
import math

import numpy as np
import pytest

from yprobe import floquet, oracle
from yprobe.liouvillian import LiouvillianSet, build_for, build_liouvillian
from yprobe.params import SystemParams
from yprobe.presets import get_preset

FIG2A = get_preset("fig2a").params
FIG2B = get_preset("fig2b").params
FIG5C = get_preset("fig5c").params


def dark_params(**kw):
    """All fields off, perpendicular dipoles: plain exponential decay."""
    base = dict(gamma1=0.3, gamma2=1.0, gamma3=0.2, theta_deg=90.0,
                W12=0.0, Omega1=0.0, Omega2=0.0, Omega3=0.0)
    base.update(kw)
    return SystemParams(**base)


class TestIntegrateFull:
    def test_pure_exponential_decay(self):
        p = dark_params()
        lv = build_liouvillian(p)
        r0 = np.zeros(15, dtype=complex)
        r0[0] = 1.0  # all population in the top level
        cfg = oracle.TrajectoryConfig(t_max=5.0, dt=1e-3, initial=r0)
        times, states = oracle.integrate_full(lv, p, cfg)
        expected = np.exp(-2 * p.gamma1 * times)
        assert np.abs(states[:, 0] - expected).max() < 1e-10

    def test_decoupled_level_stays_empty(self):
        # perpendicular dipoles and no probe: nothing feeds the top level
        p = FIG2A.with_(Omega1=0.0)
        lv = build_liouvillian(p)
        r0 = np.zeros(15, dtype=complex)
        r0[2] = 1.0  # start on the lower pumped level
        dt = 0.9 * oracle.max_stable_dt(lv, 0.0)
        _, states = oracle.integrate_full(
            lv, p, oracle.TrajectoryConfig(t_max=50.0, dt=dt, store_every=100))
        assert np.abs(states[:, 0]).max() < 1e-12

    def test_rejects_unstable_step(self):
        p = FIG2B
        lv = build_liouvillian(p)
        dt = 2.0 * oracle.max_stable_dt(lv, p.Omega1)
        with pytest.raises(oracle.IntegrationError, match="stability"):
            oracle.integrate_full(lv, p, oracle.TrajectoryConfig(t_max=1.0, dt=dt))

    def test_rejects_nonpositive_step(self):
        lv = build_liouvillian(FIG2B)
        with pytest.raises(oracle.IntegrationError, match="positive"):
            oracle.integrate_full(lv, FIG2B, oracle.TrajectoryConfig(t_max=1.0, dt=0.0))

    def test_rejects_wrong_initial_shape(self):
        lv = build_liouvillian(FIG2B)
        cfg = oracle.TrajectoryConfig(t_max=1.0, dt=1e-3, initial=np.zeros(4))
        with pytest.raises(ValueError, match="components"):
            oracle.integrate_full(lv, FIG2B, cfg)

    def test_store_every_thins_output(self):
        p = dark_params()
        lv = build_liouvillian(p)
        cfg = oracle.TrajectoryConfig(t_max=1.0, dt=1e-3, store_every=100)
        times, states = oracle.integrate_full(lv, p, cfg)
        assert len(times) == len(states) == 11
        assert times[1] == pytest.approx(0.1)

    def test_fourth_order_step_convergence(self):
        # halving dt should shrink the one-trajectory error ~16x
        p = FIG2B.with_(Omega1=0.5, gamma1=0.5, gamma3=0.5)
        lv = build_liouvillian(p)
        bound = oracle.max_stable_dt(lv, p.Omega1)
        errs = []
        prev = None
        for dt in (0.4 * bound, 0.2 * bound, 0.1 * bound):
            cfg = oracle.TrajectoryConfig(t_max=80 * 0.4 * bound, dt=dt,
                                          demod_delta=1.0, store_every=10 ** 9)
            _, states = oracle.integrate_full(lv, p, cfg)
            if prev is not None:
                errs.append(np.abs(states[-1] - prev).max())
            prev = states[-1]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.5)


def rk4_affine(lv, dt):
    """Constant-generator RK4 step as r -> a r + b, from M0 and Sigma."""
    dtm = dt * lv.m0
    eye = np.eye(lv.dim)
    a = eye + dtm @ (eye + dtm @ (eye + dtm @ (eye + dtm / 4) / 3) / 2)
    phi_m = eye + dtm @ (eye + dtm @ (eye + dtm / 4) / 3) / 2
    return a, -dt * (phi_m @ lv.sigma)


def rk4_step(lv, omega1, delta, phi, t, dt, r):
    """One four-stage RK4 step of d/dt R = M(t) R - Sigma(t), written out."""
    def rhs(t, r):
        e = np.exp(-1j * (delta * t - phi))
        return (lv.m0 @ r - lv.sigma
                + omega1 * e * (lv.m1 @ r - lv.sigma1)
                + omega1 / e * (lv.m_minus1 @ r - lv.sigma_minus1))
    k1 = rhs(t, r)
    k2 = rhs(t + dt / 2, r + dt / 2 * k1)
    k3 = rhs(t + dt / 2, r + dt / 2 * k2)
    k4 = rhs(t + dt, r + dt * k3)
    return r + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def probe_on_case(name, omega1):
    """A probe-on trajectory setting with a random probe phase and detuning."""
    rng = np.random.default_rng(11)
    p = get_preset(name).params.with_(Omega1=omega1, Phi=rng.uniform(0, 2 * math.pi))
    lv = build_for(p)
    return p, lv, 0.9 * oracle.max_stable_dt(lv, omega1), rng.uniform(-2.0, 2.0)


@functools.cache
def probe_on_step_loop(name, omega1, n_steps=1003):
    """States after 0..n_steps plain RK4 steps from the zero state."""
    p, lv, dt, delta = probe_on_case(name, omega1)
    r = np.zeros(lv.dim, dtype=complex)
    out = [r]
    for k in range(n_steps):
        r = rk4_step(lv, p.Omega1, delta, p.Phi, k * dt, dt, r)
        out.append(r)
    out = np.array(out)
    out.flags.writeable = False     # shared by every caller through the cache
    return out


class TestPrecomputedSteps:
    """The composed and Laurent-expanded steps against plain RK4 loops."""

    @pytest.mark.parametrize("name, start", [("fig7", "33"), ("fig5c", "22")])
    @pytest.mark.parametrize("every", [7, 10 ** 4])
    def test_probe_off_orbit_matches_step_loop(self, name, start, every):
        p = get_preset(name).params.with_(Omega1=0.0)
        lv = build_for(p)
        r = np.zeros(lv.dim, dtype=complex)
        r[lv.index(start)] = 1.0
        dt = 0.9 * oracle.max_stable_dt(lv, 0.0)
        n_steps = 3000                     # 3000 = 428 * 7 + 4: a partial last block
        cfg = oracle.TrajectoryConfig(t_max=n_steps * dt, dt=dt, initial=r,
                                      store_every=every)
        times, states = oracle.integrate_full(lv, p, cfg)
        a, b = rk4_affine(lv, dt)
        want = [r]
        for k in range(1, n_steps + 1):
            r = a @ r + b
            if k % every == 0 or k == n_steps:
                want.append(r)
        steps = [k * every for k in range(n_steps // every + 1)] + [n_steps]
        assert times.tolist() == [k * dt for k in steps]
        assert np.abs(states - np.array(want)).max() <= 1e-10

    @pytest.mark.parametrize("name", ["fig2b", "fig5c"])
    def test_probe_on_step_matches_four_stages(self, name):
        rng = np.random.default_rng(5)
        p = get_preset(name).params.with_(Omega1=0.5, Phi=rng.uniform(0, 2 * math.pi))
        lv = build_for(p)
        delta = rng.uniform(-2.0, 2.0)
        dt = 0.9 * oracle.max_stable_dt(lv, p.Omega1)
        r0 = floquet.steady_state(lv)
        cfg = oracle.TrajectoryConfig(t_max=2000 * dt, dt=dt, initial=r0,
                                      demod_delta=delta)
        times, states = oracle.integrate_full(lv, p, cfg)
        for k in rng.choice(2000, size=50, replace=False):
            want = rk4_step(lv, p.Omega1, delta, p.Phi, k * dt, dt, states[k])
            assert np.abs(states[k + 1] - want).max() <= 1e-13
        r = r0
        for k in range(2000):
            r = rk4_step(lv, p.Omega1, delta, p.Phi, k * dt, dt, r)
        assert np.abs(states[-1] - r).max() <= 1e-12

    @pytest.mark.parametrize("name", ["fig2b", "fig5c"])
    @pytest.mark.parametrize("omega1", [1e-3, 0.5])
    @pytest.mark.parametrize("every", [1, 2, 3, 4, 7, 10, 12, 10 ** 9])
    def test_probe_on_blocks_match_step_loop(self, name, omega1, every):
        # blocks of 1, 2, 3, 4, 7, 5, 6 and 8 steps; 1003 steps leave a partial last block
        want = probe_on_step_loop(name, omega1)
        n_steps = len(want) - 1
        p, lv, dt, delta = probe_on_case(name, omega1)
        cfg = oracle.TrajectoryConfig(t_max=n_steps * dt, dt=dt, demod_delta=delta,
                                      store_every=every)
        times, states = oracle.integrate_full(lv, p, cfg)
        steps = [*range(0, n_steps, every), n_steps]
        assert times.tolist() == [k * dt for k in steps]
        assert np.abs(states - want[steps]).max() <= 1e-13 * np.abs(want).max()
        if every == 1:
            g = oracle._generator(lv, p.Omega1)
            step = oracle._laurent(lambda z: oracle._departure(g, z, delta, dt), 4)
            step[4] += np.eye(lv.dim + 1)
            single = oracle._laurent_orbit(step, np.append(want[0], 1.0),
                                           np.arange(n_steps + 1), delta, p.Phi, dt)
            assert np.array_equal(states, single[:, :-1])

    @pytest.mark.parametrize("name", ["fig2b", "fig5c"])
    @pytest.mark.parametrize("every", [1, 3, 4, 8, 16])
    def test_probe_on_blocks_across_phase_chunks(self, monkeypatch, name, every):
        # 9 maps per chunk: 1003 steps cross many chunk boundaries and end on
        # a partial chunk for blocks of 1, 3, 4 and 8 steps; at every = 16 a
        # stored sample falls every other map, so samples straddle chunks too
        monkeypatch.setattr(oracle, "PHASE_CHUNK", 9)
        want = probe_on_step_loop(name, 0.5)
        n_steps = len(want) - 1
        p, lv, dt, delta = probe_on_case(name, 0.5)
        cfg = oracle.TrajectoryConfig(t_max=n_steps * dt, dt=dt, demod_delta=delta,
                                      store_every=every)
        times, states = oracle.integrate_full(lv, p, cfg)
        steps = [*range(0, n_steps, every), n_steps]
        assert times.tolist() == [k * dt for k in steps]
        assert np.abs(states - want[steps]).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("omega1", [0.0, 0.1])
    def test_non_finite_state_names_first_bad_sample(self, omega1):
        # a hand-made growing generator: |R| = 3e300 exp(t / 2) overflows
        # between t = 35 and t = 36, far from either stored sample
        eye, zero = 0.5 * np.eye(15, dtype=complex), np.zeros((15, 15), dtype=complex)
        lv = LiouvillianSet(eye, zero, zero, np.zeros(15, dtype=complex),
                            np.zeros(15, dtype=complex), np.zeros(15, dtype=complex),
                            build_liouvillian(FIG2B).labels)
        p = FIG2B.with_(Omega1=omega1)
        with np.errstate(over="ignore", invalid="ignore"):
            for initial, t_bad in ((np.full(15, 3e300), "36"), (np.full(15, np.inf), "1")):
                cfg = oracle.TrajectoryConfig(t_max=50.0, dt=0.01, initial=initial,
                                              demod_delta=0.7, store_every=100)
                with pytest.raises(oracle.IntegrationError, match=f"t = {t_bad};"):
                    oracle.integrate_full(lv, p, cfg)

    @pytest.mark.parametrize("field, value", [
        ("store_every", 0), ("store_every", -3), ("store_every", 2.5),
        ("store_every", True), ("dt", math.nan), ("t_max", -1.0), ("t_max", math.inf),
        ("t_max", 4e-4), ("t_max", 5e-4),   # spans that round to zero steps of dt
        ("demod_delta", math.nan), ("demod_delta", math.inf)])
    def test_rejects_invalid_config(self, field, value):
        lv = build_liouvillian(FIG2B)
        cfg = oracle.TrajectoryConfig(t_max=0.05, dt=1e-3)
        setattr(cfg, field, value)
        with pytest.raises(oracle.IntegrationError, match=field):
            oracle.integrate_full(lv, FIG2B, cfg)


class TestSteadyStateByIntegration:
    def test_matches_direct_solve(self):
        lv = build_liouvillian(FIG2B)
        by_time = oracle.steady_state_by_integration(lv, FIG2B, t_max=1500.0)
        direct = floquet.steady_state(lv)
        assert np.abs(by_time - direct).max() < 1e-6


class TestDemodulate:
    C = 0.3 - 0.7j

    def demodulate_synthetic(self, t_end, n, window):
        """demodulate a static part, the harmonic C and a counter-rotating one at delta 0.8."""
        delta, phi, om1 = 0.8, 0.4, 1e-3
        t = np.linspace(0.0, t_end, n)
        signal = (0.25 + 0.1j) + self.C * om1 * np.exp(-1j * (delta * t - phi)) \
            + 0.05 * om1 * np.exp(1j * (delta * t - phi))
        return oracle.demodulate(t, signal, delta, phi, om1, window=window)

    def test_recovers_synthetic_harmonic(self):
        assert abs(self.demodulate_synthetic(200.0, 80001, 60.0) - self.C) < 1e-6

    def test_window_longer_than_series_takes_whole_periods(self):
        # 20 time units hold two whole periods of delta = 0.8 (15.7); averaging
        # all 20 instead leaves a relative error of 1.4e-2; an infinite window is as long
        for window in (60.0, np.inf):
            out = self.demodulate_synthetic(20.0, 8001, window)
            assert abs(out - self.C) < 1e-4 * abs(self.C)

    def test_zero_probe_returns_zero(self):
        t = np.linspace(0, 10, 101)
        assert oracle.demodulate(t, np.ones(101), 1.0, 0.0, 0.0, 10.0) == 0.0

    @pytest.mark.parametrize("delta", [0.0, np.nan, np.inf, -np.inf])
    def test_rejects_undemodulable_delta(self, delta):
        # checked first: even a zero probe, which needs no demodulation, is refused
        t = np.linspace(0, 10, 11)
        for omega1 in (1e-2, 0.0):
            with pytest.raises(ValueError, match="delta must be finite and non-zero"):
                oracle.demodulate(t, np.ones(11), delta, 0.0, omega1, 10.0)

    def test_rejects_short_window(self):
        t = np.linspace(0, 100, 1001)
        with pytest.raises(ValueError, match="period"):
            oracle.demodulate(t, np.ones(1001), 0.5, 0.0, 1e-3, window=5.0)
        with pytest.raises(ValueError, match="period"):   # a long window on a short series
            oracle.demodulate(t[:51], np.ones(51), 0.5, 0.0, 1e-3, window=50.0)

    @pytest.mark.parametrize("window", [0.0, -5.0, np.nan, -np.inf])
    def test_rejects_window_that_is_not_positive(self, window):
        t = np.linspace(0, 100, 1001)
        for omega1 in (1e-3, 0.0):
            with pytest.raises(ValueError, match="window must be > 0"):
                oracle.demodulate(t, np.ones(1001), 0.5, 0.0, omega1, window)

    @pytest.mark.parametrize("n_rho", [1000, 1002])
    def test_rejects_series_of_different_lengths(self, n_rho):
        t = np.linspace(0, 100, 1001)
        with pytest.raises(ValueError, match=r"times \(1001,\) and rho13 \(%d,\)" % n_rho):
            oracle.demodulate(t, np.ones(n_rho), 0.5, 0.0, 1e-3, 60.0)

    def test_rejects_times_that_are_empty_or_do_not_increase(self):
        t = np.linspace(0, 100, 1001)
        y = np.exp(-0.8j * t)
        for times, rho13 in ((t[::-1], y[::-1]),
                             (np.append(t, t[-1]), np.append(y, y[-1])),   # a repeated sample
                             (t[:0], y[:0])):                               # no sample at all
            with pytest.raises(ValueError, match="times must be non-empty and increase"):
                oracle.demodulate(times, rho13, 0.8, 0.0, 1e-3, 60.0)

    def test_rejects_series_that_are_not_1d(self):
        t = np.linspace(0, 100, 1000).reshape(2, 500)
        with pytest.raises(ValueError, match=r"times \(2, 500\) and rho13 \(2, 500\) must be 1-d"):
            oracle.demodulate(t, np.ones(t.shape), 0.8, 0.0, 1e-3, 60.0)

    def test_agrees_with_linear_response_solve(self):
        # fast-decaying system so the transient dies well inside t_max
        p = FIG2B.with_(gamma1=0.6, gamma3=0.4, Omega1=1e-3)
        lv = build_liouvillian(p)
        delta = 0.9
        dt = 0.9 * oracle.max_stable_dt(lv, p.Omega1)
        cfg = oracle.TrajectoryConfig(t_max=80.0, dt=dt, demod_delta=delta,
                                      store_every=4)
        times, states = oracle.integrate_full(lv, p, cfg)
        got = oracle.demodulate(times, states[:, lv.index("13")], delta,
                                p.Phi, p.Omega1, window=30.0)
        want = floquet.ProbeResponse(p).harmonic(delta)[0][lv.index("13")]
        assert abs(got - want) < 0.01 * abs(want)

    def test_v_system_agrees_with_linear_response_solve(self):
        # the default initial state must take the 8-component V dimension
        p = FIG5C.with_(gamma1=0.6)
        lv = build_for(p)
        delta = 0.9
        dt = 0.9 * oracle.max_stable_dt(lv, p.Omega1)
        cfg = oracle.TrajectoryConfig(t_max=80.0, dt=dt, demod_delta=delta,
                                      store_every=4)
        times, states = oracle.integrate_full(lv, p, cfg)
        assert states.shape[1] == 8 and not states[0].any()
        got = oracle.demodulate(times, states[:, lv.index("13")], delta,
                                p.Phi, p.Omega1, window=30.0)
        want = floquet.ProbeResponse(p).harmonic(delta)[0][lv.index("13")]
        assert abs(got - want) < 0.01 * abs(want)
