import math

import numpy as np
import pytest

from yprobe import dressed, floquet
from yprobe.liouvillian import build_liouvillian
from yprobe.params import ParameterError
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
        assert dressed.middle_state_dressed_populations() == (0.0, 0.5, 0.5, 0.0, 0.0)


class TestGammaTable:
    def test_reference_values(self):
        t = dressed.gamma_table(0.01, 1.0, 0.01, 0.0966)
        assert t.rate("11", "11") == -0.02
        assert t.rate("dd", "dd") == -1.0
        assert t.rate("1-", "11") == -0.0483
        assert t.rate("++", "11") == 0.0

    def test_population_columns_conserve_exactly(self):
        # dyadic rates make the cancellation exact in floating point
        t = dressed.gamma_table(0.5, 1.0, 0.25, 0.375)
        for source in dressed.POPULATIONS:
            assert sum(t.rate(source, tgt) for tgt in dressed.POPULATIONS) == 0.0

    def test_population_columns_conserve_generic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g1, g2, g3 = rng.uniform(0.01, 5.0, size=3)
            t = dressed.gamma_table(g1, g2, g3, math.sqrt(g1 * g2))
            for source in dressed.POPULATIONS:
                total = sum(t.rate(source, tgt) for tgt in dressed.POPULATIONS)
                assert abs(total) < 1e-15 * max(g1, g2, g3)

    def test_no_interference_decouples_coherence(self):
        t = dressed.gamma_table(0.01, 1.0, 0.01, 0.0)
        for source, target in [("1-", "11"), ("-1", "11"), ("1-", "++"),
                               ("-1", "++"), ("11", "1-"), ("--", "1-")]:
            assert t.rate(source, target) == 0.0
        g = t.matrix()
        assert not g[:4, 4].any() and not g[4, :4].any()


class TestSecularLock:
    def test_accepts_locked_parameters(self):
        t = dressed.secular_table_from_params(FIG2B.with_(Omega1=0.0))
        assert t.gamma12 == pytest.approx(FIG2B.gamma12)

    def test_rejects_detuned_pumps(self):
        with pytest.raises(ParameterError, match="detuning"):
            dressed.secular_table_from_params(FIG2B.with_(Delta2=0.5, Delta3=-0.5))

    def test_rejects_asymmetric_drive(self):
        with pytest.raises(ParameterError, match="Omega2"):
            dressed.secular_table_from_params(FIG2B.with_(Omega2=1.0, Omega3=2.0))

    def test_rejects_unlocked_splitting(self):
        with pytest.raises(ParameterError, match="W12"):
            dressed.secular_table_from_params(FIG2B.with_(W12=4.0))


class TestEvolveSecular:
    def test_trapping_builds_up_monotonically(self):
        table = dressed.secular_table_from_params(FIG2B)
        times, states = dressed.evolve_secular(
            table, dressed.middle_state_dressed_populations(), 500.0, 0.01)
        rho11 = states[:, 0]
        late = rho11[len(rho11) // 2:]
        assert np.all(np.diff(late) >= -1e-12)
        assert rho11[-1] > 0.5

    def test_no_interference_keeps_excited_state_empty(self):
        table = dressed.gamma_table(0.01, 1.0, 0.01, 0.0)
        _, states = dressed.evolve_secular(
            table, dressed.middle_state_dressed_populations(), 100.0, 0.01)
        assert np.abs(states[:, 0]).max() == 0.0

    def test_trace_preserved(self):
        table = dressed.secular_table_from_params(FIG2B)
        _, states = dressed.evolve_secular(
            table, dressed.middle_state_dressed_populations(), 200.0, 0.005)
        assert np.abs(states[:, :4].sum(axis=1) - 1.0).max() < 1e-9

    def test_rejects_oversized_step(self):
        table = dressed.secular_table_from_params(FIG2B)
        with pytest.raises(ValueError, match="step"):
            dressed.evolve_secular(table, (0, 0.5, 0.5, 0, 0), 10.0, 0.5)

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
            table, dressed.middle_state_dressed_populations(), 2000.0, 0.01)
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
    def test_equal_populations_give_zero(self):
        assert dressed.coherence_from_populations(0.3, 0.3) == 0.0

    def test_maximal_difference(self):
        assert dressed.coherence_from_populations(1.0, 0.0) == pytest.approx(
            0.35355339059327373, rel=1e-12)

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
        via_pops = dressed.coherence_from_populations(ss[2], ss[1])
        assert via_pops == pytest.approx(dressed.pump_coherence_analytic(g1, g3),
                                         abs=1e-10)
