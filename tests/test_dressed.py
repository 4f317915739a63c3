import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yprobe import dressed, floquet
from yprobe.liouvillian import build_liouvillian
from yprobe.params import ParameterError, SystemParams
from yprobe.presets import get_preset

FIG2B = get_preset("fig2b").params
FIG8 = get_preset("fig8").params


class TestDressedStates:
    def test_symmetric_drive(self):
        d, plus, minus = dressed.dressed_states(2.0, 2.0)
        assert d.amplitudes == pytest.approx((1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)))
        assert plus.eigenvalue == pytest.approx(2 * math.sqrt(2))
        assert (d.label, plus.label, minus.label) == ("d", "+", "-")

    def test_eigenvalue_splitting(self):
        om = 4 / math.sqrt(2)
        _, plus, minus = dressed.dressed_states(om, om)
        assert plus.eigenvalue == pytest.approx(4.0, abs=1e-12)
        assert minus.eigenvalue == pytest.approx(-4.0, abs=1e-12)

    def test_orthonormality_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            o2, o3 = rng.uniform(0.1, 30.0, size=2)
            states = dressed.dressed_states(o2, o3)
            vecs = [np.array(s.amplitudes) for s in states]
            for i, v in enumerate(vecs):
                for j, w in enumerate(vecs):
                    expected = 1.0 if i == j else 0.0
                    assert abs(v @ w - expected) < 1e-12

    def test_rejects_zero_drive(self):
        with pytest.raises(ParameterError):
            dressed.dressed_states(0.0, 0.0)

    def test_middle_state_projection_exact(self):
        assert dressed.MIDDLE_STATE == (0.0, 0.5, 0.5, 0.0, 0.0)


class TestGammaTable:
    def test_reference_values(self):
        # rows are targets, columns sources; the merged coherence column
        # holds both conjugate terms, -0.0483 each
        g = dressed.gamma_table(0.01, 1.0, 0.01, 0.0966).matrix()
        assert g[0, 0] == -0.02
        assert g[3, 3] == -1.0
        assert g[0, 4] == -0.0966
        assert g[0, 1] == 0.0

    def test_matrix_is_a_fresh_copy(self):
        t = dressed.gamma_table(0.01, 1.0, 0.01, 0.0966)
        t.matrix()[3] = 1.0
        assert t.matrix()[3, 3] == -1.0

    def test_population_columns_conserve_exactly(self):
        # dyadic rates make the cancellation exact in floating point
        g = dressed.gamma_table(0.5, 1.0, 0.25, 0.375).matrix()
        assert np.all(g[:4, :4].sum(axis=0) == 0.0)

    def test_population_columns_conserve_generic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g1, g2, g3 = rng.uniform(0.01, 5.0, size=3)
            g = dressed.gamma_table(g1, g2, g3, math.sqrt(g1 * g2)).matrix()
            assert np.abs(g[:4, :4].sum(axis=0)).max() < 1e-15 * max(g1, g2, g3)

    def test_no_interference_decouples_coherence(self):
        g = dressed.gamma_table(0.01, 1.0, 0.01, 0.0).matrix()
        assert not g[:4, 4].any() and not g[4, :4].any()


class TestSecularLock:
    def test_accepts_locked_parameters(self):
        t = dressed.secular_table_from_params(FIG2B.with_(Omega1=0.0))
        assert t.matrix()[0, 4] == -FIG2B.gamma12

    def test_rejects_detuned_pumps(self):
        with pytest.raises(ParameterError, match="detuning"):
            dressed.secular_table_from_params(FIG2B.with_(Delta2=0.5, Delta3=-0.5))

    def test_rejects_asymmetric_drive(self):
        with pytest.raises(ParameterError, match="Omega2"):
            dressed.secular_table_from_params(FIG2B.with_(Omega2=1.0, Omega3=2.0))

    def test_rejects_unlocked_splitting(self):
        with pytest.raises(ParameterError, match="W12"):
            dressed.secular_table_from_params(FIG2B.with_(W12=4.0))

    def test_rejects_v_system(self):
        # the V system has no |4> and no dressed triplet, even with every
        # other lock condition met
        v = get_preset("fig5b").params.with_(Omega2=0.0, W12=0.0)
        with pytest.raises(ParameterError, match="system_kind"):
            dressed.secular_table_from_params(v)

    def test_rejects_zero_pumps(self):
        # W12 = 0 meets the lock at Omega2 = Omega3 = 0, but there are no
        # dressed states: the full master equation leaves rho11 at 0
        with pytest.raises(ParameterError, match="Omega2"):
            dressed.secular_table_from_params(FIG2B.with_(Omega2=0.0, Omega3=0.0, W12=0.0))


class TestEvolveSecular:
    def test_trapping_builds_up_monotonically(self):
        table = dressed.secular_table_from_params(FIG2B)
        times, states = dressed.evolve_secular(
            table, dressed.MIDDLE_STATE, 500.0, 0.01)
        rho11 = states[:, 0]
        late = rho11[len(rho11) // 2:]
        assert np.all(np.diff(late) >= -1e-12)
        assert rho11[-1] > 0.5

    def test_no_interference_keeps_excited_state_empty(self):
        table = dressed.gamma_table(0.01, 1.0, 0.01, 0.0)
        _, states = dressed.evolve_secular(
            table, dressed.MIDDLE_STATE, 100.0, 0.01)
        assert np.abs(states[:, 0]).max() == 0.0

    def test_trace_preserved(self):
        table = dressed.secular_table_from_params(FIG2B)
        _, states = dressed.evolve_secular(
            table, dressed.MIDDLE_STATE, 200.0, 0.005)
        assert np.abs(states[:, :4].sum(axis=1) - 1.0).max() < 1e-9

    def test_rejects_oversized_step(self):
        table = dressed.secular_table_from_params(FIG2B)
        with pytest.raises(ValueError, match="step"):
            dressed.evolve_secular(table, (0, 0.5, 0.5, 0, 0), 10.0, 0.5)

    @pytest.mark.parametrize("t_max, dt, field", [
        (-1.0, 0.01, "t_max"), (math.nan, 0.01, "t_max"), (math.inf, 0.01, "t_max"),
        (10.0, math.nan, "dt"), (10.0, -0.01, "dt")])
    def test_rejects_invalid_span_and_step(self, t_max, dt, field):
        table = dressed.secular_table_from_params(FIG2B)
        with pytest.raises(ValueError, match=field):
            dressed.evolve_secular(table, (0, 0.5, 0.5, 0, 0), t_max, dt)

    def test_matches_step_loop(self):
        table = dressed.secular_table_from_params(FIG2B)
        y = np.array(dressed.MIDDLE_STATE)
        times, states = dressed.evolve_secular(table, y, 30.0, 0.01)
        dtg = 0.01 * table.matrix()
        a = np.eye(5) + dtg + dtg @ dtg / 2 + dtg @ dtg @ dtg / 6 + dtg @ dtg @ dtg @ dtg / 24
        want = [y]
        for _ in range(3000):
            want.append(a @ want[-1])
        assert times.tolist() == [k * 0.01 for k in range(3001)]
        assert np.abs(states - np.array(want)).max() <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(omega=st.floats(1.0, 10.0), theta=st.floats(0.0, 90.0),
           gamma1=st.floats(0.005, 1.0), gamma3=st.floats(0.005, 1.0))
    def test_population_sum_conserved_on_locked_parameters(self, omega, theta,
                                                           gamma1, gamma3):
        p = SystemParams(gamma1=gamma1, gamma2=1.0, gamma3=gamma3, theta_deg=theta,
                         W12=-math.sqrt(2.0) * omega, Omega1=0.0, Omega2=omega,
                         Omega3=omega)
        table = dressed.secular_table_from_params(p)
        dt = 0.5 * 0.01 / np.abs(table.matrix()).max()
        _, states = dressed.evolve_secular(
            table, dressed.MIDDLE_STATE, 500.0, dt)
        assert np.abs(states[:, :4].sum(axis=1) - 1.0).max() <= 1e-9

    def test_rejects_bad_initial_trace(self):
        table = dressed.secular_table_from_params(FIG2B)
        with pytest.raises(ValueError, match="sum to 1"):
            dressed.evolve_secular(table, (0.5, 0.5, 0.5, 0, 0), 10.0, 0.01)


class TestSecularSteadyState:
    def test_decoupled_excited_state_empties(self):
        table = dressed.gamma_table(0.5, 1.0, 0.2, 0.0)
        ss = dressed.secular_steady_state(table)
        assert ss[0] == pytest.approx(0.0, abs=1e-14)

    def test_trapping_dominates_with_interference(self):
        table = dressed.secular_table_from_params(FIG2B)
        ss = dressed.secular_steady_state(table)
        assert ss[0] > 0.5
        assert ss[:4].sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_long_time_integration(self):
        table = dressed.secular_table_from_params(FIG2B)
        _, states = dressed.evolve_secular(
            table, dressed.MIDDLE_STATE, 2000.0, 0.01)
        assert np.abs(states[-1] - dressed.secular_steady_state(table)).max() < 1e-6

    def test_fast_excited_decay_favours_minus_state(self):
        table = dressed.secular_table_from_params(FIG8)
        ss = dressed.secular_steady_state(table)
        assert ss[2] - ss[1] > 0.5  # rho_mm - rho_pp

    def test_agrees_with_full_master_equation(self):
        # secular approximation error at Omega = 4/sqrt(2) stays below 15%
        table = dressed.secular_table_from_params(FIG2B)
        ss = dressed.secular_steady_state(table)
        lv = build_liouvillian(FIG2B.with_(Omega1=0.0))
        full_rho11 = floquet.steady_state(lv)[0].real
        assert abs(ss[0] - full_rho11) / full_rho11 < 0.15


class TestPumpCoherence:
    def test_analytic_value(self):
        assert dressed.pump_coherence_analytic(5.0, 0.01) == pytest.approx(
            0.3219, abs=5e-4)

    def test_vanishes_without_fast_decay(self):
        assert dressed.pump_coherence_analytic(0.0, 0.3) == 0.0

    def test_large_gamma1_asymptote(self):
        # sqrt(2) / (2 (gamma3+2)(4 gamma3+1)) = 0.33826... at gamma3 = 0.01
        g3 = 0.01
        limit = math.sqrt(2.0) / (2.0 * (g3 + 2.0) * (4.0 * g3 + 1.0))
        assert limit == pytest.approx(0.338263864, abs=1e-7)
        assert dressed.pump_coherence_analytic(1e9, g3) == pytest.approx(limit, rel=1e-8)

    def test_consistency_with_secular_populations(self):
        # with gamma12 -> sqrt(gamma1 gamma2), the secular steady state must
        # reproduce the closed form
        g1, g2, g3 = 5.0, 1.0, 0.01
        table = dressed.gamma_table(g1, g2, g3, math.sqrt(g1 * g2))
        ss = dressed.secular_steady_state(table)
        # dressed-state estimate Re(rho23) ~ (rho_mm - rho_pp) / (2 sqrt(2))
        via_pops = (ss[2] - ss[1]) / (2.0 * math.sqrt(2.0))
        assert via_pops == pytest.approx(dressed.pump_coherence_analytic(g1, g3),
                                         abs=1e-10)
