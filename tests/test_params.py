import json
import math

import numpy as np
import pytest

from yprobe.params import ParameterError, SystemKind, SystemParams, delta_from_delta1


def interference_parameter(gamma1, gamma2, theta_deg):
    """The cross-damping gamma12 of a parameter set with these rates and dipole angle."""
    return SystemParams(gamma1=gamma1, gamma2=gamma2, gamma3=1.0, theta_deg=theta_deg,
                        W12=0.0, Omega1=0.0, Omega2=0.0, Omega3=0.0).gamma12


class TestInterferenceParameter:
    def test_perpendicular_dipoles_give_zero(self):
        assert interference_parameter(0.01, 1.0, 90.0) == pytest.approx(0.0, abs=1e-12)

    def test_weak_decay_15_degrees(self):
        # sqrt(0.01) * cos(15 deg)
        assert interference_parameter(0.01, 1.0, 15.0) == pytest.approx(
            0.09659258262890683, rel=1e-12)

    def test_fast_decay_10_degrees(self):
        # sqrt(5) * cos(10 deg)
        assert interference_parameter(5.0, 1.0, 10.0) == pytest.approx(
            2.2020970805041205, rel=1e-12)

    def test_parallel_dipoles_maximal(self):
        assert interference_parameter(0.25, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("g1,g2,theta", [(-1, 1, 10), (1, 0, 10), (1, 1, 91), (1, 1, -1)])
    def test_rejects_invalid_inputs(self, g1, g2, theta):
        with pytest.raises(ParameterError):
            interference_parameter(g1, g2, theta)

    def test_monotone_decreasing_in_theta(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g1, g2 = rng.uniform(0.01, 5.0, size=2)
            values = [interference_parameter(g1, g2, th)
                      for th in np.linspace(0.0, 90.0, 50)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[0] == pytest.approx(math.sqrt(g1 * g2), rel=1e-14)


class TestDetuningConversion:
    @pytest.mark.parametrize("delta1,D2,W12,expected", [
        (0.0, 0.0, -4.0, -4.0),
        (4.0, 0.0, -4.0, 0.0),
        (-0.75, 0.0, -0.75, -1.5),
    ])
    def test_examples(self, delta1, D2, W12, expected):
        assert delta_from_delta1(delta1, D2, W12) == expected


class TestSystemParams:
    def _valid(self, **kw):
        base = dict(gamma1=0.01, gamma2=1.0, gamma3=0.01, theta_deg=15.0,
                    W12=-4.0, Omega1=0.001, Omega2=2.8, Omega3=2.8)
        base.update(kw)
        return base

    def test_gamma12_derived_and_bounded(self):
        p = SystemParams(**self._valid())
        assert 0.0 <= p.gamma12 <= math.sqrt(p.gamma1 * p.gamma2)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError):
            SystemParams(**self._valid(gamma2=0.0))

    def test_rejects_negative_rabi(self):
        with pytest.raises(ParameterError):
            SystemParams(**self._valid(Omega2=-1.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["gamma1", "gamma3", "theta_deg", "Omega1",
                                      "Omega3", "W12"])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            SystemParams(**self._valid(**{name: value}))

    @pytest.mark.parametrize("value", ["1", None, True, False, np.True_, 1j, [1.0],
                                       np.array([True]), np.array(["1"])])
    @pytest.mark.parametrize("name", ["gamma1", "theta_deg", "Omega2", "Phi"])
    def test_rejects_non_real_values(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be a real number"):
            SystemParams(**self._valid(**{name: value}))

    @pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.float64(0.5)])
    def test_accepts_ints_and_numpy_reals(self, value):
        assert SystemParams(**self._valid(gamma1=value)).gamma1 == value

    def test_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            SystemParams.from_dict(self._valid(gamma4=1.0))

    def test_json_roundtrip(self):
        p = SystemParams(**self._valid(system_kind=SystemKind.V_THREE_LEVEL))
        q = SystemParams.from_dict(json.loads(json.dumps(p.to_dict())))
        assert q == p

    def test_with_override(self):
        p = SystemParams(**self._valid())
        assert p.with_(theta_deg=90.0).gamma12 == pytest.approx(0.0, abs=1e-12)
