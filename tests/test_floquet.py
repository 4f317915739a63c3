import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yprobe import cli, floquet, linalg, liouvillian
from yprobe.liouvillian import build_for, build_liouvillian, hermitian_reconstruct
from yprobe.params import ParameterError, SystemKind, SystemParams, delta_from_delta1
from yprobe.presets import PRESETS, get_preset

FIG2A = get_preset("fig2a").params
FIG2B = get_preset("fig2b").params
FIG3 = get_preset("fig3").params
FIG5B = get_preset("fig5b").params
FIG8 = get_preset("fig8").params
SPECTRUM_PRESETS = [name for name, pr in PRESETS.items() if "delta1_min" in pr.grid]


def random_params(rng):
    return SystemParams(
        gamma1=rng.uniform(0.2, 1.5), gamma2=1.0, gamma3=rng.uniform(0.2, 1.5),
        theta_deg=rng.uniform(0.0, 90.0), W12=rng.uniform(-3.0, 3.0),
        Omega1=1e-3, Omega2=rng.uniform(0.5, 3.0), Omega3=rng.uniform(0.5, 3.0),
        Delta2=rng.uniform(-2.0, 2.0), Delta3=rng.uniform(-2.0, 2.0),
        Phi=rng.uniform(0.0, 2 * math.pi))


def resolvent_slope(p, delta1):
    """d Re(chi)/d Delta1 = Re(-i gamma2 [G G b]_13), G = (M0 + i delta)^-1 inverted outright."""
    lv = build_for(p)
    b = lv.sigma1 - lv.m1 @ np.linalg.solve(lv.m0, lv.sigma)
    delta = delta1 - p.Delta2 + p.W12
    g = np.linalg.inv(lv.m0 + 1j * delta * np.eye(lv.dim))
    return (-1j * p.gamma2 * (g @ g @ b)[lv.index("13")]).real


class TestSolveFloquet:
    """Steady state and first-order harmonic of the response core."""

    def test_perpendicular_dipoles_empty_excited_state(self):
        r0 = floquet.ProbeResponse(FIG2A).r0
        assert abs(r0[0]) < 1e-12

    def test_unpumped_atom_has_no_response(self):
        # Omega3 = 0 leaves the atom in the ground state: zero steady vector
        # and zero linear response.
        resp = floquet.ProbeResponse(FIG2A.with_(Omega3=0.0))
        r_plus, _ = resp.harmonic(0.5)
        assert np.abs(resp.r0).max() < 1e-14
        assert np.abs(r_plus).max() < 1e-14

    def test_steady_state_physical(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_params(rng)
            lv = build_for(p)
            rho = hermitian_reconstruct(floquet.steady_state(lv))
            pops = np.diag(rho)
            assert np.abs(pops.imag).max() < 1e-12
            assert np.all(pops.real > -1e-12) and np.all(pops.real < 1 + 1e-12)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_steady_state_satisfies_generator_equation(self):
        lv = build_liouvillian(FIG2B)
        r0 = floquet.steady_state(lv)
        assert np.abs(lv.m0 @ r0 - lv.sigma).max() < 1e-10


class TestSusceptibility:
    def test_transparent_at_line_centre_with_interference(self):
        chi, _ = floquet.ProbeResponse(FIG2B).response(0.0)
        assert abs(chi.imag) < 0.01

    def test_gain_doublet(self):
        chi, _ = floquet.ProbeResponse(FIG2B).response([4.0, -4.0])
        assert (chi.imag < 0).all()

    def test_phase_independence_bitwise(self):
        base = floquet.ProbeResponse(FIG2B).response(1.7)[0]
        for phi in (0.0, math.pi / 3, math.pi):
            assert floquet.ProbeResponse(FIG2B.with_(Phi=phi)).response(1.7)[0] == base

    def test_near_symmetric_doublet_without_interference(self):
        grid = np.linspace(-10, 10, 401)
        im = floquet.probe_spectrum(FIG2A, grid)[0].imag
        peak = np.abs(im).max()
        assert np.abs(im - im[::-1]).max() < 0.05 * peak

    def test_v_system_gain_with_anomalous_dispersion(self):
        chi, slope = floquet.ProbeResponse(FIG5B).response(0.0)
        assert chi.imag < 0
        assert slope < 0


class TestDispersionSlope:
    def test_normal_dispersion_without_interference(self):
        assert floquet.ProbeResponse(FIG2A).response(0.0)[1] > 0

    def test_small_splitting_steepens_negative_slope(self):
        s2b = floquet.ProbeResponse(FIG2B).response(0.0)[1]
        s3 = floquet.ProbeResponse(FIG3).response(0.0)[1]
        assert s3 < s2b < 0

    @pytest.mark.parametrize("name", SPECTRUM_PRESETS)
    def test_exact_slope_matches_resolvent_derivative(self, name):
        p = PRESETS[name].params
        resp = floquet.ProbeResponse(p)
        for delta1 in (-4.0, -0.75, 0.0, 0.3, 0.75, 2.0, 4.0):
            want = resolvent_slope(p, delta1)
            assert abs(resp.response(delta1)[1] - want) <= 1e-10 * abs(want)

    def test_central_difference_converges_quadratically(self):
        # an outside central difference of chi approaches the exact slope at O(h^2)
        resp = floquet.ProbeResponse(FIG3)
        exact = resp.response(0.3)[1]

        def err(h):
            chi = [resp.response(0.3 + s)[0].real for s in (h, -h)]
            return (chi[0] - chi[1]) / (2 * h) - exact

        e1, e2, e3 = err(1e-3), err(5e-4), err(2.5e-4)
        assert abs(e1) < 1e-5
        # halving h shrinks the error fourfold
        assert e1 / e2 == pytest.approx(4.0, abs=0.5)
        assert e2 / e3 == pytest.approx(4.0, abs=0.5)

    def test_fig3_slope_beside_line_centre(self):
        # A central difference with h = 1e-3 is 4% off here; Richardson
        # extrapolation of smaller steps pins the derivative of Re(chi).
        resp = floquet.ProbeResponse(FIG3)

        def fd(h):
            chi = [resp.response(0.75 + s)[0].real for s in (h, -h)]
            return (chi[0] - chi[1]) / (2 * h)

        richardson = (4 * fd(5e-5) - fd(1e-4)) / 3
        slope = resp.response(0.75)[1]
        assert slope == pytest.approx(richardson, rel=1e-6)
        assert slope == pytest.approx(resolvent_slope(FIG3, 0.75), rel=1e-10)


class TestGroupVelocityRatio:
    # c/vg = 1 + K * slope is the c_over_vg column of probe-spectrum
    def c_over_vg(self, params, k_value):
        (table,) = cli.cmd_probe_spectrum(params, delta1_min=0.0, delta1_max=0.0,
                                          n_points=1, k_value=k_value).values()
        return table["c_over_vg"][0], table["slope"][0]

    def test_zero_slope_is_vacuum(self):
        # no dispersive medium (K = 0): the probe travels at c
        assert self.c_over_vg(FIG2B, 0.0)[0] == 1.0

    def test_positive_slope_subluminal(self):
        # fig2a (theta = 90 deg, no interference) slows the probe at line centre
        assert FIG2A.theta_deg == 90.0
        c_over_vg, slope = self.c_over_vg(FIG2A, 250.0)
        assert slope > 0 and c_over_vg > 1.0

    def test_steep_negative_slope_negative_velocity(self):
        # the interference of fig2b (theta = 15 deg) makes vg negative at line centre
        assert FIG2B.theta_deg == 15.0
        c_over_vg, slope = self.c_over_vg(FIG2B, 250.0)
        assert slope < 0 and c_over_vg < 0.0


class TestSweeps:
    def test_interference_sweep_endpoints(self):
        slope = floquet.interference_sweep(FIG3, [0.0, 1.0])
        assert slope[0] > 0      # no interference: normal dispersion
        assert slope[1] < 0      # maximal interference: steepest anomalous
        assert slope[1] < slope[0]

    def test_interference_sweep_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            floquet.interference_sweep(FIG3, [1.5])

    def test_pump_population_trace(self):
        for rho in floquet.pump_sweep(FIG2B, np.linspace(-5, 5, 21)):
            r11, r22, r33 = rho.diagonal()[:3].real
            assert 0 <= r11 <= 1 and 0 <= r22 <= 1 and 0 <= r33 <= 1
            assert r11 + r22 + r33 <= 1 + 1e-12

    def test_population_inversion_at_resonance(self):
        (rho,) = floquet.pump_sweep(FIG2B, [0.0])
        assert rho[0, 0].real - rho[2, 2].real > 0.5

    def test_no_excited_population_without_interference(self):
        rhos = floquet.pump_sweep(FIG2A, np.linspace(-5, 5, 11))
        assert max(rhos[:, 0, 0].real) < 1e-12

    def test_pump_coherences_match_between_transitions(self):
        (rho,) = floquet.pump_sweep(FIG8, [0.0])
        r23, r34 = rho[1, 2], rho[2, 3]
        assert r23.real == pytest.approx(r34.real, rel=1e-3)
        assert r23.real == pytest.approx(0.303, abs=0.005)

    def test_interference_raises_dispersion_lowers_absorption(self):
        r23_int = floquet.pump_sweep(FIG8, [0.0])[0, 1, 2]
        r23_no = floquet.pump_sweep(FIG8.with_(theta_deg=90.0), [0.0])[0, 1, 2]
        assert r23_int.real > 2 * r23_no.real
        assert abs(r23_int.imag) < abs(r23_no.imag)

    def test_coherence_independent_of_pump_strength(self):
        values = []
        for om in (20 / math.sqrt(2), 30 / math.sqrt(2), 50 / math.sqrt(2)):
            p = FIG8.with_(Omega2=om, Omega3=om, W12=-om * math.sqrt(2))
            values.append(floquet.pump_sweep(p, [0.0])[0, 1, 2].real)
        assert (max(values) - min(values)) / max(values) < 0.02


class TestProbeSpectrum:
    def test_point_fields(self):
        chi, slope = floquet.probe_spectrum(FIG2B, [0.0, 1.0])
        assert chi.shape == slope.shape == (2,)
        assert chi.dtype == complex and slope.dtype == float
        assert (chi[1], slope[1]) == floquet.ProbeResponse(FIG2B).response(1.0)


def lu_slope(p, delta1):
    """The dispersion slope from one per-point stacked-LU solve, the sweeps' path."""
    lv = build_for(p)
    _, d_r_plus = floquet._harmonic(lv, floquet.steady_state(lv),
                                    delta_from_delta1(delta1, p.Delta2, p.W12))
    return p.gamma2 * d_r_plus[lv.index("13")].real


def preset_grid(name):
    lo, hi, n = PRESETS[name].grid.values()
    return np.linspace(lo, hi, n)


class TestStackedPaths:
    """Each blocked sweep equals its per-point loop bit for bit."""

    @pytest.mark.parametrize("name,detuning", [("fig2b", 0.0), ("fig5b", 0.0), ("fig3", 0.3)])
    def test_probe_spectrum_matches_scalar_harmonic(self, name, detuning):
        p = PRESETS[name].params.with_(Delta2=detuning, Delta3=-detuning)
        grid = preset_grid(name)
        assert len(grid) == 2001 and len(grid) % floquet._BLOCK  # ends on a partial block
        resp = floquet.ProbeResponse(p)
        i13 = resp.liouv.index("13")
        want_chi, want_slope = [], []
        for d1 in grid:
            r_plus, d_r_plus = resp.harmonic(d1 - p.Delta2 + p.W12)
            want_chi.append(p.gamma2 * r_plus[i13])
            want_slope.append(p.gamma2 * d_r_plus[i13].real)
        chi, slope = floquet.probe_spectrum(p, grid)
        assert np.array_equal(chi, want_chi)
        assert np.array_equal(slope, want_slope)

    def test_harmonic_takes_an_array_of_detunings(self):
        resp = floquet.ProbeResponse(FIG3)
        deltas = np.linspace(-2.0, 2.0, 7)
        r_plus, d_r_plus = resp.harmonic(deltas)
        assert r_plus.shape == d_r_plus.shape == (7, 15)
        for k, delta in enumerate(deltas):
            one = resp.harmonic(delta)
            assert np.array_equal(r_plus[k], one[0])
            assert np.array_equal(d_r_plus[k], one[1])

    def test_column_result_does_not_depend_on_grid_width(self):
        # Each detuning is one GEMM column; a BLAS that rounds a column by its
        # position in the block (or in a tail narrower than 4) fails here.
        rng = np.random.default_rng(16)
        widths = [1, 2, 3, 4, 5, 7, 127, 128, 129, 130, 131, 255, 258, 299]
        widths += [int(w) for w in rng.integers(1, 301, 16)]
        for trial, width in enumerate(widths):
            p = random_params(rng).with_(system_kind=list(SystemKind)[trial % 2])
            grid = rng.uniform(-10.0, 10.0, width)
            chi, slope = floquet.probe_spectrum(p, grid)
            resp = floquet.ProbeResponse(p)
            points = np.append(rng.choice(width, min(width, 7), replace=False), width - 1)
            for i in points:
                want_chi, want_slope = resp.response(grid[i])
                assert chi[i] == want_chi and slope[i] == want_slope, \
                    f"grid width {width}: point {i} differs from its per-point solve"

    def test_interference_sweep_matches_per_theta(self):
        p = get_preset("fig4").params
        grid = preset_grid("fig4")
        want = [lu_slope(p.with_(theta_deg=float(np.degrees(np.arccos(x)))), 0.0)
                for x in grid]
        assert np.array_equal(floquet.interference_sweep(p, grid), want)

    def test_pump_sweep_matches_per_detuning(self):
        grid = preset_grid("fig8")
        want = [hermitian_reconstruct(floquet.steady_state(build_for(
            FIG8.with_(Omega1=0.0, Delta2=float(d2), Delta3=float(-d2))))) for d2 in grid]
        assert np.array_equal(floquet.pump_sweep(FIG8, grid), want)

    def test_empty_grids(self):
        chi, slope = floquet.probe_spectrum(FIG2B, [])
        assert chi.shape == slope.shape == floquet.interference_sweep(FIG3, []).shape == (0,)
        # zero density matrices of the system's own size, as one point gives one
        assert floquet.pump_sweep(FIG8, []).shape == (0, 4, 4)
        assert floquet.pump_sweep(FIG5B, []).shape == (0, 3, 3)

    def test_one_point_grids(self):
        (chi,), (slope,) = floquet.probe_spectrum(FIG5B, [0.5])
        assert (chi, slope) == floquet.ProbeResponse(FIG5B).response(0.5)
        (slope,) = floquet.interference_sweep(FIG3, [1.0])
        assert slope == lu_slope(FIG3.with_(theta_deg=0.0), 0.0)
        assert floquet.pump_sweep(FIG8, [0.0]).shape == (1, 4, 4)

    def test_bad_p_in_a_later_block_rejected(self):
        grid = np.append(np.linspace(0.0, 1.0, floquet._BLOCK + 3), 1.5)
        with pytest.raises(ValueError, match="1.5"):
            floquet.interference_sweep(FIG3, grid)

    def test_bad_grids_rejected_before_any_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a block was built before the grid was checked")
        monkeypatch.setattr(floquet, "build_stack", no_build)
        grid = np.linspace(0.0, 1.0, floquet._BLOCK + 3)
        with pytest.raises(ValueError, match="nan"):
            floquet.interference_sweep(FIG3, np.append(grid, np.nan))
        with pytest.raises(ParameterError, match="Delta2 must be finite, got inf"):
            floquet.pump_sweep(FIG8, np.append(grid, np.inf))

    @pytest.mark.parametrize("shape", [(2, 3), (), (1, 1)])
    def test_grid_that_is_not_1d_rejected_before_any_build(self, monkeypatch, shape):
        grid = np.full(shape, 0.5)
        chi, slope = floquet.ProbeResponse(FIG2B).response(grid)   # a response takes any shape
        assert chi.shape == slope.shape == shape

        def no_build(*args, **kwargs):
            raise AssertionError("a generator was built before the grid was checked")
        monkeypatch.setattr(floquet, "build_for", no_build)
        monkeypatch.setattr(floquet, "build_stack", no_build)
        bad = grid.copy()
        bad.flat[-1] = np.nan   # the shape is reported before any value check
        for sweep, p in ((floquet.probe_spectrum, FIG2B), (floquet.interference_sweep, FIG3),
                         (floquet.pump_sweep, FIG8)):
            for g in (grid, bad):
                with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                    sweep(p, g)

    @pytest.mark.parametrize("grid", [[True], ["1"], [1j]], ids=["bool", "text", "complex"])
    def test_grid_of_non_real_entries_rejected_before_any_build(self, monkeypatch, grid):
        # SystemParams refuses Delta2=True and Delta2="1"; a grid or a column refuses
        # such entries too, rather than running them as 1.0
        def no_build(*args, **kwargs):
            raise AssertionError("a generator was built before the grid was checked")
        monkeypatch.setattr(floquet, "build_for", no_build)
        monkeypatch.setattr(floquet, "build_stack", no_build)
        monkeypatch.setattr(liouvillian, "_assemble", no_build)
        for sweep, p in ((floquet.probe_spectrum, FIG2B), (floquet.interference_sweep, FIG3),
                         (floquet.pump_sweep, FIG8)):
            with pytest.raises(ParameterError, match="a grid must be 1-d and real"):
                sweep(p, grid)
        with pytest.raises(ParameterError, match="Delta2 must be a real number"):
            liouvillian.build_stack(FIG8, Delta2=grid)

    @pytest.mark.parametrize("delta1", [True, "1", 1j, ["1"]],
                             ids=["bool", "text", "complex", "text-array"])
    def test_response_refuses_non_real_detuning(self, delta1):
        # a cast to float would answer True and "1" with the Delta1 = 1 result
        with pytest.raises(ParameterError, match="delta1 must be real, got dtype"):
            floquet.ProbeResponse(FIG2B).response(delta1)

    def test_pump_sweep_rejects_nan_detuning(self):
        with pytest.raises(ParameterError, match="Delta2 must be finite, got nan"):
            floquet.pump_sweep(FIG8, [0.0, np.nan])

    def test_probe_spectrum_memory_stays_within_a_block(self):
        # The transient peak (above the result, which grows with the grid)
        # must be set by one block, not by the grid: a whole 20001-point
        # stack of 15x15 matrices alone would take 72 MB.
        block_bytes = floquet._BLOCK * 15 * 15 * 16
        grid = np.linspace(-10.0, 10.0, 20001)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            chi, slope = floquet.probe_spectrum(FIG2B, grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chi.shape == slope.shape == (20001,)
        assert peak - retained < 8 * block_bytes


def mp_reference(p, delta1):
    """chi and slope at delta1 from 40-digit solves on the float generator."""
    lv = build_for(p)
    with mpmath.workdps(40):
        m0 = mpmath.matrix(lv.m0.tolist())
        r0 = mpmath.lu_solve(m0, mpmath.matrix(lv.sigma.tolist()))
        b = mpmath.matrix(lv.sigma1.tolist()) - mpmath.matrix(lv.m1.tolist()) * r0
        delta = delta_from_delta1(delta1, p.Delta2, p.W12)
        a = m0 + mpmath.mpc(0, delta) * mpmath.eye(lv.dim)
        r_plus = mpmath.lu_solve(a, b)
        s = mpmath.lu_solve(a, r_plus)   # dRp/d delta = -i s
        i13 = lv.index("13")
        return complex(p.gamma2 * r_plus[i13]), float((p.gamma2 * s[i13]).imag)


def with_m0(monkeypatch, m0):
    """A ProbeResponse on fig2b's generator with M0 replaced by m0."""
    lv = dataclasses.replace(build_for(FIG2B), m0=np.asarray(m0, dtype=complex))
    monkeypatch.setattr(floquet, "build_for", lambda params: lv)
    return floquet.ProbeResponse(FIG2B)


PARAMS = st.builds(
    SystemParams, gamma1=st.floats(0.05, 2.0), gamma2=st.just(1.0),
    gamma3=st.floats(0.05, 2.0), theta_deg=st.floats(0.0, 90.0), W12=st.floats(-5.0, 5.0),
    Omega1=st.just(1e-3), Omega2=st.floats(0.1, 5.0), Omega3=st.floats(0.1, 5.0),
    Delta2=st.floats(-3.0, 3.0), Delta3=st.floats(-3.0, 3.0),
    system_kind=st.sampled_from(list(SystemKind)))


# Nearly parallel dipoles (p = cos 0.0625 deg), the strong-interference regime:
# M0 relaxes as slowly as 2.0e-6 and cond(M0) = 9.6e6, so the slope solve at
# Delta1 = 0 has |x| = 8.3e5.  A residual test that did not scale with |A| |x|
# rejected its exact (backward error 1e-16) solve.
NEARLY_PARALLEL = SystemParams(
    gamma1=0.0546875, gamma2=1.0, gamma3=0.0546875, theta_deg=0.0625, W12=0.0,
    Omega1=0.001, Omega2=0.125, Omega3=5.0, Delta2=0.0, Delta3=1.0)


class TestModalCore:
    """Spectra solve in the eigenbasis of M0; LU takes what that path cannot."""

    @pytest.mark.parametrize("name,delta1", [
        ("fig2b", 0.0), ("fig2b", 3.97), ("fig2b", -3.97),
        ("fig2b", 0.04),   # |chi| = 1.4e-4 in the transparent window: the poles cancel
        ("fig2a", 0.04),
    ])
    def test_matches_40_digit_solve(self, name, delta1):
        want_chi, want_slope = mp_reference(PRESETS[name].params, delta1)
        (chi,), (slope,) = floquet.probe_spectrum(PRESETS[name].params, [delta1])
        assert abs(chi - want_chi) <= 1e-12 * abs(want_chi)
        assert abs(slope - want_slope) <= 1e-12 * abs(want_slope)

    def test_nearly_parallel_dipoles_match_40_digit_solve(self):
        grid = preset_grid("fig2b")
        chi, slope = floquet.probe_spectrum(NEARLY_PARALLEL, grid)
        (i,) = np.flatnonzero(grid == 0.0)
        want_chi, want_slope = mp_reference(NEARLY_PARALLEL, 0.0)
        # cond(A) = 9.6e6 bounds the forward error by about 1e-9; measured
        # 9e-13 on chi and 2.9e-11 on the slope
        assert abs(chi[i] - want_chi) <= 1e-11 * abs(want_chi)
        assert abs(slope[i] - want_slope) <= 1e-9 * abs(want_slope)

    def test_non_unique_steady_state_stays_an_error(self):
        # p = 1, W12 = 0 and no pumps: the dark upper superposition never
        # decays, so M0 is singular and R0 is not unique
        p = NEARLY_PARALLEL.with_(theta_deg=0.0, Omega2=0.0, Omega3=0.0)
        with pytest.raises(linalg.SingularMatrixError) as err:
            floquet.probe_spectrum(p, [0.0])
        assert err.value.matrix_index == ()   # M0 itself, in the steady-state solve

    @pytest.mark.parametrize("name", SPECTRUM_PRESETS)
    def test_matches_lu_on_preset_grids(self, name):
        # Pins the residual-correction step.  The worst point is fig2b's
        # transparent window (Delta1 = 0.04, |chi| = 1.4e-4), where the poles
        # cancel: measured 7.7e-13 with the step and 3.7e-12 without it.
        p, grid = PRESETS[name].params, preset_grid(name)
        chi, _ = floquet.probe_spectrum(p, grid)
        lv = build_for(p)
        r_plus, _ = floquet._harmonic(lv, floquet.steady_state(lv),
                                      delta_from_delta1(grid, p.Delta2, p.W12))
        want = p.gamma2 * r_plus[:, lv.index("13")]
        assert np.all(np.abs(chi - want) <= 1e-12 * np.abs(want))

    def test_spectra_need_no_lu(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("stacked LU called")
        monkeypatch.setattr(floquet, "_harmonic", refuse)
        for name in SPECTRUM_PRESETS:
            floquet.probe_spectrum(PRESETS[name].params, preset_grid(name))

    @pytest.mark.parametrize("diag,lower", [
        # near-Jordan: eigenvalues -0.5 +- 1e-7, almost parallel eigenvectors, cond(V) = 1e7
        (np.append([-0.5, -0.5], -0.5 * np.arange(3, 16)), 1e-14),
        # an exact Jordan pair at -1, numerically defective: cond(V) = 9e15
        (np.append([-1.0, -1.0], -0.5 * np.arange(3, 16)), 0.0),
    ], ids=["near_jordan", "exact_jordan"])
    def test_ill_conditioned_eigenbasis_is_solved_modally(self, monkeypatch, diag, lower):
        m0 = np.diag(diag) + 0j
        m0[0, 1], m0[1, 0] = 1.0, lower
        resp = with_m0(monkeypatch, m0)
        assert np.linalg.cond(np.linalg.eig(m0)[1]) > 1e6
        deltas = np.linspace(-3.0, 3.0, 11)
        want = floquet._harmonic(resp.liouv, resp.r0, deltas)

        def refuse(*args):
            raise AssertionError("stacked LU called")
        monkeypatch.setattr(floquet, "_harmonic", refuse)
        # the backward-error and pivot checks accept every detuning, and the
        # solves agree with LU (measured 5.7e-16 of each row's largest element)
        for got, ref in zip(resp.harmonic(deltas), want):
            scale = np.abs(ref).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_nonfinite_detuning_raises_as_lu_does(self):
        with pytest.raises(ValueError) as err:
            floquet.probe_spectrum(FIG2B, [0.0, np.nan, 1.0])
        assert str(err.value) == "a[1]: matrix has non-finite entries"
        grid = np.append(np.linspace(0.0, 1.0, floquet._BLOCK + 2), np.inf)
        with pytest.raises(ValueError) as err:
            floquet.probe_spectrum(FIG2B, grid)
        assert str(err.value) == "a[2]: matrix has non-finite entries"   # block-relative
        with pytest.raises(ValueError) as err:
            floquet.ProbeResponse(FIG2B).response(np.nan)
        assert str(err.value) == "matrix has non-finite entries"

    def test_singular_shift_raises_as_lu_does(self, monkeypatch):
        # M0 with an undamped mode at eigenvalue 2i: A = M0 + i delta is singular at delta = -2.
        resp = with_m0(monkeypatch, np.diag(np.append(-0.5 * np.arange(1, 15), 2j)))
        for delta in (-2.0, np.array([0.0, -2.0, 1.0])):
            with pytest.raises(linalg.SingularMatrixError) as got:
                resp.harmonic(delta)
            with pytest.raises(linalg.SingularMatrixError) as want:
                floquet._harmonic(resp.liouv, resp.r0, delta)
            assert str(got.value) == str(want.value)
            assert got.value.matrix_index == want.value.matrix_index
        assert str(got.value).startswith("a[1]: matrix numerically singular: |pivot[14]| = 0.000e+00")
        # a finite neighbour of the pole is solved, and agrees with LU
        got = resp.harmonic(-2.0 + 1e-6)
        want = floquet._harmonic(resp.liouv, resp.r0, -2.0 + 1e-6)
        assert np.abs(got[0] - want[0]).max() <= 1e-12 * np.abs(want[0]).max()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(PARAMS)
    @example(NEARLY_PARALLEL)
    def test_agrees_with_lu_on_random_parameters(self, p):
        resp = floquet.ProbeResponse(p)
        deltas = np.linspace(-10.0, 10.0, 41)
        r_plus, d_r_plus = resp.harmonic(deltas)
        want, d_want = floquet._harmonic(resp.liouv, resp.r0, deltas)
        # Relative to each row's largest element: chi itself vanishes by
        # symmetry at some draws (gamma1 = gamma2, theta = 0, delta = 0).
        i13 = resp.liouv.index("13")
        scale = np.abs(want).max(axis=-1)
        assert np.all(np.abs(r_plus[:, i13] - want[:, i13]) <= 1e-12 * scale)
        # The slope solves with A twice, so both paths lose digits in
        # proportion to the condition number kappa of A = M0 + i delta.  It
        # reaches 4e4 at a nearly undamped mode (V system, theta = 0,
        # gamma1 = gamma2), where the two slopes differ by ~1e-10.
        poles = np.abs(np.linalg.eigvals(resp.liouv.m0) + 1j * deltas[:, None])
        kappa = poles.max(axis=-1) / poles.min(axis=-1)
        d_scale = np.abs(d_want).max(axis=-1)
        assert np.all(np.abs(d_r_plus[:, i13] - d_want[:, i13]) <= 1e-12 * kappa * d_scale)
