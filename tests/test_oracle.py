import math

import numpy as np
import pytest

from yprobe import floquet, oracle
from yprobe.liouvillian import build_for, build_liouvillian
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


class TestSteadyStateByIntegration:
    def test_matches_direct_solve(self):
        lv = build_liouvillian(FIG2B)
        by_time = oracle.steady_state_by_integration(lv, FIG2B, t_max=1500.0)
        direct = floquet.steady_state(lv)
        assert np.abs(by_time - direct).max() < 1e-6


class TestDemodulate:
    def test_recovers_synthetic_harmonic(self):
        delta, phi, om1 = 0.8, 0.4, 1e-3
        c = 0.3 - 0.7j
        t = np.linspace(0.0, 200.0, 80001)
        signal = (0.25 + 0.1j) + c * om1 * np.exp(-1j * (delta * t - phi)) \
            + 0.05 * om1 * np.exp(1j * (delta * t - phi))
        out = oracle.demodulate(t, signal, delta, phi, om1, window=60.0)
        assert abs(out - c) < 1e-6

    def test_zero_probe_returns_zero(self):
        t = np.linspace(0, 10, 101)
        assert oracle.demodulate(t, np.ones(101), 1.0, 0.0, 0.0, 10.0) == 0.0

    def test_dc_branch_uses_reference(self):
        t = np.linspace(0, 10, 11)
        y = np.full(11, 0.2 + 0.05j)
        out = oracle.demodulate(t, y, 0.0, 0.0, 1e-2, 10.0, r0_13=0.2 + 0.0j)
        assert out == pytest.approx(5.0j)

    def test_dc_branch_requires_reference(self):
        t = np.linspace(0, 10, 11)
        with pytest.raises(ValueError, match="r0_13"):
            oracle.demodulate(t, np.ones(11), 0.0, 0.0, 1e-2, 10.0)

    def test_rejects_short_window(self):
        t = np.linspace(0, 100, 1001)
        with pytest.raises(ValueError, match="period"):
            oracle.demodulate(t, np.ones(1001), 0.5, 0.0, 1e-3, window=5.0)

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
