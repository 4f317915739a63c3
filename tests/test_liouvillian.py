import dataclasses

import numpy as np
import pytest

from yprobe import liouvillian
from yprobe.liouvillian import (
    V_LABELS,
    Y_LABELS,
    build_for,
    build_liouvillian,
    build_stack,
    build_v_liouvillian,
    hermitian_reconstruct,
)
from yprobe.params import ParameterError, SystemKind, SystemParams


def y_params(**kw):
    base = dict(gamma1=0.01, gamma2=1.0, gamma3=0.01, theta_deg=15.0,
                W12=-4.0, Omega1=1e-3, Omega2=2.8284271247461903,
                Omega3=2.8284271247461903)
    base.update(kw)
    return SystemParams(**base)


def v_params(**kw):
    base = dict(gamma1=0.01, gamma2=1.0, gamma3=0.01, theta_deg=15.0,
                W12=-4.0, Omega1=1e-3, Omega2=4.0, Omega3=0.0,
                system_kind=SystemKind.V_THREE_LEVEL)
    base.update(kw)
    return SystemParams(**base)


def assert_same_bits(got, want):
    """Equal values with equal signs of zero, which np.array_equal does not compare."""
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def random_hermitian_vector(rng, labels):
    """Element vector of a random Hermitian matrix with unit trace."""
    size = 4 if len(labels) == 15 else 3
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return np.array([rho[int(l[0]) - 1, int(l[1]) - 1] for l in labels])


class TestYBuilder:
    def test_excited_population_row(self):
        p = y_params()
        lv = build_liouvillian(p)
        i = lv.index("11")
        assert lv.m0[i, lv.index("11")] == -2 * p.gamma1
        assert lv.m0[i, lv.index("12")] == -p.gamma12
        assert lv.m0[i, lv.index("21")] == -p.gamma12

    def test_sigma_has_two_entries(self):
        p = y_params()
        lv = build_liouvillian(p)
        expected = np.zeros(15, dtype=complex)
        expected[8] = -1j * p.Omega3   # rho34 row (index 9, 1-based)
        expected[14] = 1j * p.Omega3   # rho43 row (index 15)
        assert np.array_equal(lv.sigma, expected)
        assert not lv.sigma1.any() and not lv.sigma_minus1.any()

    def test_perpendicular_dipoles_remove_cross_damping(self):
        lv0 = build_liouvillian(y_params(theta_deg=90.0))
        assert lv0.m0[lv0.index("11"), lv0.index("12")] == 0.0
        # every entry that changes with theta carries gamma12 and must be
        # exactly zero for perpendicular dipoles
        lv1 = build_liouvillian(y_params(theta_deg=15.0))
        support = lv1.m0 != lv0.m0
        assert support.any()
        assert not lv0.m0[support].any()

    def test_probe_matrices_independent_of_omega1(self):
        a = build_liouvillian(y_params(Omega1=1e-3))
        b = build_liouvillian(y_params(Omega1=0.7))
        assert np.array_equal(a.m1, b.m1)
        assert np.array_equal(a.m_minus1, b.m_minus1)
        assert np.array_equal(a.m0, b.m0)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ParameterError):
            build_liouvillian(v_params())
        with pytest.raises(ParameterError):
            build_v_liouvillian(y_params())

    def test_trace_evolution_matches_ground_state_feeding(self):
        # After eliminating rho44, d(rho11+rho22+rho33)/dt must equal
        # -d(rho44)/dt = -(2 gamma3 rho33 - i Omega3 (rho43 - rho34)).
        rng = np.random.default_rng(2)
        p = y_params()
        lv = build_liouvillian(p)
        for t in (0.0, 1.3, 7.7):
            v = random_hermitian_vector(rng, Y_LABELS)
            e = np.exp(-1j * (1.0 * t - p.Phi))
            m_t = lv.m0 + p.Omega1 * (lv.m1 * e + lv.m_minus1 / e)
            sigma_t = lv.sigma + p.Omega1 * (lv.sigma1 * e + lv.sigma_minus1 / e)
            deriv = m_t @ v - sigma_t
            lhs = deriv[:3].sum()
            rho34 = v[lv.index("34")]
            rho43 = v[lv.index("43")]
            rho33 = v[lv.index("33")]
            rhs = -(2 * p.gamma3 * rho33 - 1j * p.Omega3 * (rho43 - rho34))
            assert abs(lhs - rhs) < 1e-12

    def test_hermiticity_propagation(self):
        rng = np.random.default_rng(4)
        for labels, params in ((Y_LABELS, y_params()), (V_LABELS, v_params())):
            lv = build_for(params)
            v = random_hermitian_vector(rng, labels)
            e = np.exp(-1j * (0.8 * 1.3 - params.Phi))
            m_t = lv.m0 + params.Omega1 * (lv.m1 * e + lv.m_minus1 / e)
            sigma_t = lv.sigma + params.Omega1 * (lv.sigma1 * e + lv.sigma_minus1 / e)
            deriv = m_t @ v - sigma_t
            for k, label in enumerate(labels):
                conj_k = labels.index(label[::-1])
                assert deriv[k] == pytest.approx(np.conj(deriv[conj_k]), abs=1e-13)

    def test_uncoupled_excited_state_stays_empty(self):
        # theta = 90 and no probe: |1> is disconnected, zero steady population
        from yprobe.floquet import steady_state
        lv = build_liouvillian(y_params(theta_deg=90.0, Omega1=0.0))
        r0 = steady_state(lv)
        assert abs(r0[0]) < 1e-12


class TestVBuilder:
    def test_pump_coherence_row(self):
        p = v_params(Delta2=0.3)
        lv = build_v_liouvillian(p)
        i = lv.index("23")
        assert lv.m0[i, i] == -(p.gamma2 - 1j * p.Delta2)
        assert lv.sigma[i] == -1j * p.Omega2

    def test_probe_constant_lands_in_harmonic_sigma(self):
        p = v_params()
        lv = build_v_liouvillian(p)
        assert lv.sigma1[lv.index("13")] == -1j
        assert lv.sigma_minus1[lv.index("31")] == 1j
        assert np.count_nonzero(lv.sigma1) == 1
        assert np.count_nonzero(lv.sigma_minus1) == 1

    def test_full_decoupling_without_interference_or_pump(self):
        lv = build_v_liouvillian(v_params(theta_deg=90.0, Omega2=0.0))
        i = lv.index("11")
        others = [k for k in range(8) if k != i]
        assert not lv.m0[i, others].any()
        assert not lv.m0[others, i].any()


def direct_rhs(p, delta, t, rho):
    """d rho/dt of the master equation by plain 4x4 (3x3) matrix products.

    -i[H(t), rho] with the pumps, the probe and its phase written out, plus
    the dissipator of the cross-damped pair |1>, |2> -> |3> (and |3> -> |4>
    in Y); no vectorisation and no eliminated element.
    """
    n = rho.shape[0]
    e = np.eye(n)

    def ket_bra(i, j):
        return np.outer(e[i - 1], e[j - 1])

    if n == 4:
        energies = [p.W12 - p.Delta2 - p.Delta3, -p.Delta2 - p.Delta3, -p.Delta3, 0.0]
    else:
        energies = [p.W12 - p.Delta2, -p.Delta2, 0.0]
    phase = np.exp(-1j * (delta * t - p.Phi))
    h = (np.diag(energies) - p.Omega2 * (ket_bra(2, 3) + ket_bra(3, 2))
         - p.Omega1 * (phase * ket_bra(1, 3) + np.conj(phase) * ket_bra(3, 1)))
    if n == 4:
        h -= p.Omega3 * (ket_bra(3, 4) + ket_bra(4, 3))
    out = -1j * (h @ rho - rho @ h)
    s = {1: ket_bra(3, 1), 2: ket_bra(3, 2)}
    rates = {(1, 1): p.gamma1, (2, 2): p.gamma2, (1, 2): p.gamma12, (2, 1): p.gamma12}
    if n == 4:
        s[3] = ket_bra(4, 3)
        rates[3, 3] = p.gamma3
    for (i, j), g in rates.items():
        si, sj = s[i], s[j].conj().T
        out += g * (2 * si @ rho @ sj - sj @ si @ rho - rho @ sj @ si)
    return out


def random_params(rng, kind):
    return SystemParams(
        gamma1=rng.uniform(0.1, 3), gamma2=rng.uniform(0.1, 3), gamma3=rng.uniform(0.1, 3),
        theta_deg=rng.uniform(1, 89), W12=rng.normal(0, 3), Omega1=rng.uniform(0.1, 1),
        Omega2=rng.uniform(0.5, 5), Omega3=rng.uniform(0.5, 5),
        Delta2=rng.choice([-1, 1]) * rng.uniform(0.1, 3),
        Delta3=rng.choice([-1, 1]) * rng.uniform(0.1, 3),
        Phi=rng.uniform(0.1, 3), system_kind=kind)


class TestGeneratorFromMasterEquation:
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_matches_direct_matrix_products(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng, kind)
            lv = build_for(p)
            delta, t = rng.normal(0, 3), rng.uniform(0, 10)
            v = random_hermitian_vector(rng, lv.labels)
            rho = hermitian_reconstruct(v)
            e = np.exp(-1j * (delta * t - p.Phi))
            m_t = lv.m0 + p.Omega1 * (lv.m1 * e + lv.m_minus1 / e)
            sigma_t = lv.sigma + p.Omega1 * (lv.sigma1 * e + lv.sigma_minus1 / e)
            deriv = m_t @ v - sigma_t
            got = hermitian_reconstruct(deriv)
            got[-1, -1] -= 1.0   # d rho/dt has trace 0, not 1
            assert np.abs(got - direct_rhs(p, delta, t, rho)).max() <= 1e-12

    @pytest.mark.parametrize("params", [y_params(), v_params()], ids=["Y", "V"])
    def test_builds_share_no_arrays(self, params):
        names = ("m0", "m1", "m_minus1", "sigma", "sigma1", "sigma_minus1")
        reference = {name: getattr(build_for(params), name).copy() for name in names}
        mutated = build_for(params)
        for name in names:
            getattr(mutated, name)[...] += 1.0
        again = build_for(params)
        for name in names:
            assert np.array_equal(getattr(again, name), reference[name])


class TestHermitianReconstruct:
    def test_zero_vector_gives_pure_ground_state(self):
        rho = hermitian_reconstruct(np.zeros(15))
        assert rho[3, 3] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_conjugate_pair_is_hermitian(self):
        v = np.zeros(15, dtype=complex)
        v[3] = 1j    # rho12
        v[9] = -1j   # rho21
        rho = hermitian_reconstruct(v)
        assert rho[0, 1] == np.conj(rho[1, 0])

    def test_physical_steady_state_is_hermitian_unit_trace(self):
        from yprobe.floquet import steady_state
        lv = build_liouvillian(y_params(Omega1=0.0))
        rho = hermitian_reconstruct(steady_state(lv))
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_v_vector_reconstructs_3x3(self):
        from yprobe.floquet import steady_state
        lv = build_v_liouvillian(v_params(Omega1=0.0))
        rho = hermitian_reconstruct(steady_state(lv))
        assert rho.shape == (3, 3)
        assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            hermitian_reconstruct(np.zeros(10))

    @pytest.mark.parametrize("shape", [(6,), (2, 3)])
    @pytest.mark.parametrize("labels", [Y_LABELS, V_LABELS], ids=["Y", "V"])
    def test_stack_matches_per_vector_calls(self, labels, shape):
        rng = np.random.default_rng(17)
        v = np.array([random_hermitian_vector(rng, labels)
                      for _ in range(np.prod(shape))]).reshape(*shape, len(labels))
        rho = hermitian_reconstruct(v)
        size = 4 if labels is Y_LABELS else 3
        assert rho.shape == (*shape, size, size)
        for index in np.ndindex(*shape):
            assert np.array_equal(rho[index], hermitian_reconstruct(v[index]))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            hermitian_reconstruct(np.float64(1.0))


# Column values with both zeros and both theta end points
SWEEP = np.array([0.0, -0.0, 90.0, 0.5, 2.0, 89.5])


class TestBuildStack:
    NAMES = ("m0", "m1", "m_minus1", "sigma", "sigma1", "sigma_minus1")
    FLOATS = [f.name for f in dataclasses.fields(SystemParams) if f.type == "float"]

    def assert_stack_equals(self, stack, draws):
        """Each entry equals build_for of its draw, bit for bit and sign of zero."""
        assert stack.m0.shape[0] == stack.sigma.shape[0] == len(draws)
        for k, p in enumerate(draws):
            one = build_for(p)
            for got, want in ((stack.m0[k], one.m0), (stack.sigma[k], one.sigma)):
                assert_same_bits(got, want)
            for name in self.NAMES[1:3] + self.NAMES[4:]:
                assert np.array_equal(getattr(stack, name), getattr(one, name))
            assert stack.labels == one.labels

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_each_matrix_equals_build_for(self, kind):
        rng = np.random.default_rng(23)
        draws = [random_params(rng, kind) for _ in range(40)]
        draws += [draws[0].with_(theta_deg=90.0), draws[1].with_(theta_deg=0.0)]
        base = random_params(rng, kind)
        stack = build_stack(base, **{name: [getattr(p, name) for p in draws]
                                     for name in self.FLOATS})
        assert stack.dim == (15 if kind is SystemKind.Y_FOUR_LEVEL else 8)
        self.assert_stack_equals(stack, draws)

    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("columns", [
        {"Delta2": SWEEP, "Delta3": -SWEEP},
        {"theta_deg": SWEEP},
        {"gamma2": SWEEP + 0.1, "W12": SWEEP[::-1]},
        {"Omega1": SWEEP, "Phi": SWEEP[::-1]},
    ], ids=["pump_detunings", "theta", "rate_and_splitting", "unused_by_generator"])
    def test_swept_columns_over_a_base(self, kind, columns):
        base = random_params(np.random.default_rng(29), kind)
        draws = [base.with_(**{name: float(c[i]) for name, c in columns.items()})
                 for i in range(len(SWEEP))]
        self.assert_stack_equals(build_stack(base, **columns), draws)

    def test_one_parameter_set(self):
        stack = build_stack(y_params(), Delta2=[0.0])
        assert stack.m0.shape == (1, 15, 15)
        assert np.array_equal(stack.m0[0], build_for(y_params()).m0)

    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("rows", [np.s_[:], 0], ids=["stack", "single"])
    def test_assemble_equals_fixed_order_sum(self, kind, rows):
        # A BLAS that reorders the GEMM's sum over names breaks this.
        system = liouvillian._Y if kind is SystemKind.Y_FOUR_LEVEL else liouvillian._V
        rng = np.random.default_rng(31)
        weights = rng.normal(size=(50, len(system.names)))
        weights[::3, ::2] = -0.0
        weights[1::3, 1::2] = 0.0
        weights = weights[rows]
        dense = np.zeros(weights.shape[:-1] + system.pieces.shape[1:], dtype=complex)
        for w, piece in zip(np.moveaxis(weights, -1, 0), system.pieces):
            dense += np.multiply.outer(w, piece)
        got = liouvillian._assemble(system, weights)
        assert_same_bits(got.m0, dense[..., :-1, :])
        assert_same_bits(got.sigma, dense[..., -1, :])

    @pytest.mark.parametrize("name, value, later", [
        ("theta_deg", 91.0, -5.0), ("Delta2", np.nan, np.inf),
        ("gamma1", 0.0, -1.0), ("Omega2", -1.0, -2.0)])
    def test_invalid_column_raises_the_params_message(self, name, value, later):
        base = y_params()
        with pytest.raises(ParameterError) as want:
            base.with_(**{name: value})
        column = np.full(4, getattr(base, name))
        column[2:] = value, later
        with pytest.raises(ParameterError) as got:
            build_stack(base, W12=np.zeros(4), **{name: column})
        assert str(got.value) == str(want.value)

    def test_ignored_field_is_checked(self):
        base = v_params()
        d3 = np.array([0.0, 1.0, -2.0])
        self.assert_stack_equals(build_stack(base, Delta3=d3),
                                 [base.with_(Delta3=float(d)) for d in d3])
        with pytest.raises(ParameterError, match="Delta3 must be finite, got nan"):
            build_stack(base, Delta3=[0.0, np.nan])

    @pytest.mark.parametrize("columns, message", [
        ({}, "one length"),
        ({"system_kind": [SystemKind.V_THREE_LEVEL]}, "system_kind"),
        ({"gamma12": [0.5]}, "gamma12"),
        ({"Delta2": [0.0, 1.0], "Delta3": [0.0]}, "one length"),
        ({"Delta2": [[0.0, 1.0]]}, "1-d"),
    ], ids=["no_columns", "system_kind", "unknown", "unequal", "two_d"])
    def test_rejects_bad_columns(self, columns, message):
        with pytest.raises(ParameterError, match=message):
            build_stack(y_params(), **columns)
