import numpy as np
import pytest

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
            deriv = lv.m_at(p.Omega1, 1.0, p.Phi, t) @ v - lv.sigma_at(p.Omega1, 1.0, p.Phi, t)
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
            deriv = (lv.m_at(params.Omega1, 0.8, params.Phi, 1.3) @ v
                     - lv.sigma_at(params.Omega1, 0.8, params.Phi, 1.3))
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
            deriv = (lv.m_at(p.Omega1, delta, p.Phi, t) @ v
                     - lv.sigma_at(p.Omega1, delta, p.Phi, t))
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


class TestBuildStack:
    NAMES = ("m0", "m1", "m_minus1", "sigma", "sigma1", "sigma_minus1")

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_each_matrix_equals_build_for(self, kind):
        rng = np.random.default_rng(23)
        draws = [random_params(rng, kind) for _ in range(40)]
        draws += [draws[0].with_(theta_deg=90.0), draws[1].with_(theta_deg=0.0)]
        stack = build_stack(draws)
        assert stack.m0.shape[0] == stack.sigma.shape[0] == len(draws)
        assert stack.dim == (15 if kind is SystemKind.Y_FOUR_LEVEL else 8)
        for k, p in enumerate(draws):
            one = build_for(p)
            assert np.array_equal(stack.m0[k], one.m0)
            assert np.array_equal(stack.sigma[k], one.sigma)
            for name in self.NAMES[1:3] + self.NAMES[4:]:
                assert np.array_equal(getattr(stack, name), getattr(one, name))
            assert stack.labels == one.labels

    def test_one_parameter_set(self):
        stack = build_stack([y_params()])
        assert stack.m0.shape == (1, 15, 15)
        assert np.array_equal(stack.m0[0], build_for(y_params()).m0)

    @pytest.mark.parametrize("params_seq", [[], [y_params(), v_params()]],
                             ids=["empty", "mixed"])
    def test_needs_one_system_kind(self, params_seq):
        with pytest.raises(ParameterError, match="one system kind"):
            build_stack(params_seq)
