import collections
import dataclasses
import fractions
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcvqkd import cli, keyrate
from mlcvqkd.channel import transmittance_from_distance
from mlcvqkd.errors import InvalidInputError, InvalidParameterError, NumericalDomainError
from mlcvqkd.keyrate import (
    KeyRateParams,
    Protocol,
    _weights_eight,
    _weights_four,
    covariance_z,
    delta_n,
    entropy_g,
    holevo_chi_be,
    key_rates,
    mutual_information,
    optimize_vm,
    rate_asymptotic,
    rate_finite,
    symplectic_eigenvalues,
)
from oracles import (
    constellation_weights_series,
    correlation_from_weights,
    covariance_matrix_rate,
    per_point_optimize_vm,
    separate_rate_asymptotic,
    separate_rate_finite,
)

# values frozen from 50-digit evaluations of the same formulas; the
# double-precision implementation reproduced each to ~1e-15 relative
G_HALF = 1.377443751081734272181
G_THREE = 3.245112497836531455639

Z4_VM_HALF = 1.09654401979516362397
Z8_VM_HALF = 1.100658186630211218492
ZG_VM_HALF = 1.118033988749894848205

L4_A2_085 = [
    0.4367142067060517628034,
    0.3648833506055413413414,
    0.1546275553203155623085,
    0.04377488736809133354666,
]
L8_A2_085 = [
    0.4274178205032722403996,
    0.3633029649643469058969,
    0.1544036673551514917432,
    0.04374770097235404135634,
    0.009296386202779522403762,
    0.001580385641194435444457,
    0.0002238879651640705653883,
    0.00002718639573729219032011,
]

# operating point: vm = 0.35, 20 km (T = 10^-0.4), xi = 0.01, eta = 0.6,
# v_el = 0.05, beta = 0.98
I_20KM = 0.05625817205280776877627
Z8_POINT = 0.8961064338108300968542
CHI8_POINT = 0.03293959332182526365578
K8_POINT = 0.02219341528992634974496
LAM8_POINT = (1.214410754619479771448, 1.007729336018738781726,
              1.206442765252937192532, 1.003193756591125814948)
Z4_POINT = 0.8948360754385179470144
CHI4_POINT = 0.03376100215305445756224
K4_POINT = 0.0213720064586971558385
LAM4_POINT = (1.214818282029597065629, 1.008136863428856075906,
              1.206859744189199366989, 1.003362130017216618125)

DELTA_HALF_MILLION = 0.0580421987653897353353
I_10KM = 0.08811743081231075799043
K_ML_FINITE_10KM = 0.01100448121518104793434

REL = 1e-13

FLOAT_FIELDS = ("vm", "transmittance", "excess_noise", "eta", "v_el", "beta", "lam", "eps_bar", "eps_pa",
                "ml_eve_term")


DERIVED = ("v", "chi_line", "chi_het", "chi_tot")  # the channel terms KeyRateParams computes


def params_20km(**kw):
    defaults = dict(vm=0.35, excess_noise=0.01, eta=0.6, v_el=0.05, beta=0.98)
    defaults.update(kw)
    return KeyRateParams(transmittance=transmittance_from_distance(20.0), **defaults)


class TestEntropyG:
    def test_zero(self):
        assert entropy_g(0.0) == 0.0

    def test_frozen_values(self):
        assert entropy_g(0.5) == pytest.approx(G_HALF, rel=REL)
        assert entropy_g(3.0) == pytest.approx(G_THREE, rel=REL)

    def test_rounding_noise_below_zero_clamps(self):
        assert entropy_g(-1e-12) == 0.0

    def test_genuinely_negative_argument_rejected(self):
        with pytest.raises(NumericalDomainError) as err:
            entropy_g(-0.5)
        assert err.value.exit_code == 3

    def test_monotone_increasing(self):
        xs = np.linspace(0.0, 10.0, 50)
        gs = [entropy_g(float(x)) for x in xs]
        assert all(b > a for a, b in zip(gs, gs[1:]))

    @pytest.mark.parametrize("x", [1e4, 1e6, 1e8])
    def test_large_argument_tracks_the_logarithm(self, x):
        # G(x) -> log2(e x) from above, gap below the first-order 1/x term
        g = entropy_g(x)
        assert math.isfinite(g)
        assert 0.0 < g - math.log2(math.e * x) < math.log2(math.e) / x


class TestNoiseDecomposition:
    def test_derived_terms_are_not_fields(self):
        p = params_20km()
        assert not set(DERIVED) & set(dataclasses.asdict(p))
        assert all(f"{name}=" not in repr(p) for name in DERIVED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.chi_tot = 0.0

    def test_detector_term(self):
        p = params_20km()
        assert p.chi_het == pytest.approx((2 - 0.6 + 2 * 0.05) / 0.6)

    def test_line_term(self):
        p = KeyRateParams(vm=1.0, transmittance=0.1, excess_noise=0.01)
        assert p.chi_line == pytest.approx(10.0 - 1.0 + 0.01)

    @given(
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_noise_collapses_to_closed_form(self, t, xi, eta, v_el):
        p = KeyRateParams(vm=1.0, transmittance=t, excess_noise=xi, eta=eta, v_el=v_el)
        closed = xi - 1.0 + 2.0 * (1.0 + v_el) / (eta * t)
        assert p.chi_tot == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            KeyRateParams(vm=0.0, transmittance=0.5)
        with pytest.raises(InvalidParameterError):
            KeyRateParams(vm=1.0, transmittance=1.5)
        with pytest.raises(InvalidParameterError):
            KeyRateParams(vm=1.0, transmittance=0.5, eta=0.0)
        with pytest.raises(InvalidParameterError):
            KeyRateParams(vm=1.0, transmittance=0.5, n=100)  # missing big_n
        with pytest.raises(InvalidParameterError):
            KeyRateParams(vm=1.0, transmittance=0.5, n=200, big_n=100)

    def test_protocol_is_coerced(self):
        # a protocol given by its value once passed unchecked, failed every `is` test and gave the eight-state rate
        p = KeyRateParams(vm=0.35, transmittance=0.5, protocol="gaussian")
        assert p.protocol is Protocol.GAUSSIAN
        want = rate_asymptotic(KeyRateParams(vm=0.35, transmittance=0.5, protocol=Protocol.GAUSSIAN))
        assert rate_asymptotic(p) == want
        assert want.key_rate == pytest.approx(0.03916, abs=5e-6)
        with pytest.raises(InvalidParameterError, match="unknown protocol 'bogus'"):
            KeyRateParams(vm=0.35, transmittance=0.5, protocol="bogus")

    @pytest.mark.parametrize("field", ["vm", "excess_noise", "v_el", "ml_eve_term"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # each of these once gave a NaN key rate or a math domain error
        with pytest.raises(InvalidParameterError, match="finite"):
            KeyRateParams(**{"vm": 1.0, "transmittance": 0.5, "protocol": Protocol.ML, field: value})

    @pytest.mark.parametrize("n, big_n", [(2.5, 10.5), (5.0, 10.0), (True, True), (1, True), (math.nan, 10),
                                          (5, math.nan), ("5", 10)])
    def test_block_sizes_must_be_integers(self, n, big_n):
        # a fractional or boolean block size once passed and gave a rate for no real block
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            KeyRateParams(vm=1.0, transmittance=0.5, n=n, big_n=big_n)

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [True, False, "1", "0", None, 1 + 0j])
    def test_float_fields_must_be_real_numbers(self, field, value):
        # a bool once passed as 1 or 0, and a string or None was a raw TypeError
        with pytest.raises(InvalidParameterError, match=f"{field} must be a real number"):
            KeyRateParams(**{"vm": 1.0, "transmittance": 0.5, field: value})

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_real_values_of_any_real_type_are_plain_floats(self, field):
        # 0.5 is valid for every float field; numpy scalars once stayed numpy scalars
        for value in (np.float64(0.5), np.float32(0.5), fractions.Fraction(1, 2)):
            p = KeyRateParams(**{"vm": 1.0, "transmittance": 0.5, field: value})
            assert type(getattr(p, field)) is float and getattr(p, field) == 0.5
            assert p == KeyRateParams(**{"vm": 1.0, "transmittance": 0.5, field: 0.5})

    def test_integer_values_are_plain_floats(self):
        p = KeyRateParams(vm=2, transmittance=1, excess_noise=0, eta=1, v_el=0, ml_eve_term=0)
        assert all(type(getattr(p, name)) is float for name in FLOAT_FIELDS)
        assert rate_asymptotic(p) == rate_asymptotic(KeyRateParams(
            vm=2.0, transmittance=1.0, excess_noise=0.0, eta=1.0, v_el=0.0, ml_eve_term=0.0))

    def test_integer_past_the_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="vm must be finite"):
            KeyRateParams(vm=10**400, transmittance=0.5)

    def test_integer_block_sizes_of_any_integer_type_are_plain_ints(self):
        p = KeyRateParams(vm=1.0, transmittance=0.5, n=np.int32(500), big_n=np.int64(1000))
        assert type(p.n) is int and type(p.big_n) is int
        assert (p.n, p.big_n) == (500, 1000)
        assert rate_finite(p) == rate_finite(KeyRateParams(vm=1.0, transmittance=0.5, n=500, big_n=1000))


class TestMutualInformation:
    def test_frozen_values(self):
        assert mutual_information(params_20km()) == pytest.approx(I_20KM, rel=REL)
        p10 = KeyRateParams(vm=0.35, transmittance=transmittance_from_distance(10.0))
        assert mutual_information(p10) == pytest.approx(I_10KM, rel=REL)

    def test_direct_formula(self):
        p = params_20km(vm=5.0)
        want = math.log2((6.0 + p.chi_tot) / (1.0 + p.chi_tot))
        assert mutual_information(p) == want

    def test_increases_with_variance(self):
        rates = [mutual_information(params_20km(vm=v)) for v in (0.1, 1.0, 10.0, 100.0)]
        assert rates == sorted(rates)


class TestConstellationWeights:
    def test_four_state_frozen_values(self):
        np.testing.assert_allclose(_weights_four(0.85), L4_A2_085, rtol=REL)

    def test_eight_state_frozen_values(self):
        np.testing.assert_allclose(_weights_eight(0.85), L8_A2_085, rtol=1e-13)

    @pytest.mark.parametrize("a2", [0.05, 0.25, 0.85, 2.0, 10.0])
    def test_weights_match_fourier_series(self, a2):
        np.testing.assert_allclose(
            _weights_four(a2), constellation_weights_series(a2, 4), rtol=1e-10, atol=1e-15
        )
        np.testing.assert_allclose(
            _weights_eight(a2), constellation_weights_series(a2, 8), rtol=1e-10, atol=1e-15
        )

    def test_small_amplitude_weights_against_high_precision(self):
        # at a2 = 0.005 both the closed forms and the Fourier route cancel
        # below double precision; a 50-digit evaluation of the closed
        # forms is the only trustworthy reference there
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        a2 = mpmath.mpf("0.005")
        e = mpmath.exp(-a2)
        want4 = [
            0.5 * e * (mpmath.cosh(a2) + mpmath.cos(a2)),
            0.5 * e * (mpmath.sinh(a2) + mpmath.sin(a2)),
            0.5 * e * (mpmath.cosh(a2) - mpmath.cos(a2)),
            0.5 * e * (mpmath.sinh(a2) - mpmath.sin(a2)),
        ]
        r = a2 / mpmath.sqrt(2)
        even = 2 * mpmath.cos(r) * mpmath.cosh(r)
        odd_a = mpmath.sqrt(2) * (mpmath.cos(r) * mpmath.sinh(r) + mpmath.sin(r) * mpmath.cosh(r))
        odd_b = mpmath.sqrt(2) * (mpmath.sin(r) * mpmath.cosh(r) - mpmath.cos(r) * mpmath.sinh(r))
        want8 = [
            0.25 * e * (mpmath.cosh(a2) + mpmath.cos(a2) + even),
            0.25 * e * (mpmath.sinh(a2) + mpmath.sin(a2) + odd_a),
            0.25 * e * (mpmath.cosh(a2) - mpmath.cos(a2) + 2 * mpmath.sin(r) * mpmath.sinh(r)),
            0.25 * e * (mpmath.sinh(a2) - mpmath.sin(a2) + odd_b),
            0.25 * e * (mpmath.cosh(a2) + mpmath.cos(a2) - even),
            0.25 * e * (mpmath.sinh(a2) + mpmath.sin(a2) - odd_a),
            0.25 * e * (mpmath.cosh(a2) - mpmath.cos(a2) - 2 * mpmath.sin(r) * mpmath.sinh(r)),
            0.25 * e * (mpmath.sinh(a2) - mpmath.sin(a2) - odd_b),
        ]
        np.testing.assert_allclose(_weights_four(0.005), [float(w) for w in want4], rtol=1e-13)
        np.testing.assert_allclose(_weights_eight(0.005), [float(w) for w in want8], rtol=1e-13)

    def test_tiny_variance_stays_finite_and_positive(self):
        # vm = 0.01 used to drive the closed-form small weights negative
        for vm in (0.01, 0.02, 0.1):
            z4 = covariance_z(Protocol.FOUR_STATE, vm)
            z8 = covariance_z(Protocol.EIGHT_STATE, vm)
            zg = covariance_z(Protocol.GAUSSIAN, vm)
            assert 0.0 < z4 <= z8 <= zg
            assert all(w > 0 for w in _weights_eight(vm / 2.0))

    @pytest.mark.parametrize("a2", [0.1, 0.85, 3.0])
    def test_weights_form_a_distribution(self, a2):
        for weights in (_weights_four(a2), _weights_eight(a2)):
            assert all(w > 0 for w in weights)
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)


class TestCorrelationZ:
    def test_frozen_values_at_vm_half(self):
        assert covariance_z(Protocol.FOUR_STATE, 0.5) == pytest.approx(Z4_VM_HALF, rel=REL)
        assert covariance_z(Protocol.EIGHT_STATE, 0.5) == pytest.approx(Z8_VM_HALF, rel=REL)
        assert covariance_z(Protocol.GAUSSIAN, 0.5) == pytest.approx(ZG_VM_HALF, rel=REL)

    def test_gaussian_closed_form(self):
        assert covariance_z(Protocol.GAUSSIAN, 3.0) == pytest.approx(math.sqrt(16.0 - 1.0))
        assert covariance_z(Protocol.ML, 3.0) == covariance_z(Protocol.GAUSSIAN, 3.0)

    def test_zero_variance(self):
        for protocol in Protocol:
            assert covariance_z(protocol, 0.0) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidParameterError):
            covariance_z(Protocol.GAUSSIAN, -0.1)
        for vm in ("1.5", None):  # not real numbers
            with pytest.raises(InvalidParameterError, match="vm must be a real number"):
                covariance_z(Protocol.GAUSSIAN, vm)

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("vm", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, protocol, vm):
        # NaN once gave a NaN Z, and +inf a bare math domain error for the constellations
        with pytest.raises(InvalidParameterError, match="finite"):
            covariance_z(protocol, vm)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown protocol 'bogus'"):
            covariance_z("bogus", 1.0)

    @pytest.mark.parametrize("protocol, vm, message", [
        (Protocol.GAUSSIAN, [1.0], "vm must be a real number"),
        (Protocol.EIGHT_STATE, np.array(1.0), "vm must be a real number"),
        (["gaussian"], 1.0, "unknown protocol"),
    ])
    def test_unhashable_arguments_rejected(self, protocol, vm, message):
        # the cache hashed them first, so a list was once a raw TypeError ("unhashable type: 'list'")
        with pytest.raises(InvalidParameterError, match=message):
            covariance_z(protocol, vm)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_equal_keys_give_one_float(self, protocol):
        first = covariance_z(protocol.value, np.float64(0.7))
        for key in ((protocol, 0.7), (protocol.value, 0.7), (protocol, np.float64(0.7))):
            z = covariance_z(*key)
            assert type(z) is float and z == first
        # True equals 1.0, but it is not a real number
        covariance_z(protocol, 1.0)
        with pytest.raises(InvalidParameterError, match="vm must be a real number"):
            covariance_z(protocol, True)

    @pytest.mark.parametrize("protocol", [Protocol.FOUR_STATE, Protocol.EIGHT_STATE])
    @pytest.mark.parametrize("vm", [1e-20, 1e-50, 1e-100, 1e-150, 1e-300, 5e-324])
    def test_tiny_variance_gives_the_leading_term(self, protocol, vm):
        # a series weight, or V_m / 2 itself, underflows to 0 here: eight-state at 1e-50 and four-state at
        # 1e-150 and 5e-324 once raised "constellation weight not positive"
        z = covariance_z(protocol, vm)
        assert math.isfinite(z)
        assert math.isclose(z, math.sqrt(2.0 * vm), rel_tol=1e-12)

    def test_tiny_variance_rates_are_finite(self):
        # the rate once exited 3 for this in-domain V_m
        result = rate_asymptotic(KeyRateParams(vm=1e-50, transmittance=0.5))
        assert math.isfinite(result.key_rate)

    @given(log_vm=st.floats(math.log(1e-20), math.log(1400.0)),
           protocol=st.sampled_from([Protocol.FOUR_STATE, Protocol.EIGHT_STATE]))
    @settings(max_examples=300, deadline=None)
    def test_positive_weights_keep_every_bit(self, log_vm, protocol):
        # where every weight is positive, Z is the sum over all of them, as before the underflow rule
        vm = math.exp(log_vm)
        weights = (_weights_four if protocol is Protocol.FOUR_STATE else _weights_eight)(vm / 2.0)
        assert min(weights) > 0.0
        assert covariance_z(protocol, vm) == correlation_from_weights(vm / 2.0, weights)

    @pytest.mark.parametrize("protocol", [Protocol.FOUR_STATE, Protocol.EIGHT_STATE])
    def test_weight_overflow_is_a_numerical_domain_error(self, protocol):
        assert math.isfinite(covariance_z(protocol, 1400.0))
        with pytest.raises(NumericalDomainError, match="constellation weights overflow"):
            covariance_z(protocol, 1500.0)
        assert math.isfinite(covariance_z(Protocol.GAUSSIAN, 1500.0))

    @pytest.mark.parametrize("protocol", [Protocol.GAUSSIAN, Protocol.EIGHT_STATE])
    @pytest.mark.parametrize("extreme, message", [
        ({"eta": 1e-300}, "covariance terms overflow"), ({"excess_noise": 1e300}, "covariance terms overflow"),
        ({"v_el": 1e300}, "covariance terms overflow"), ({"eta": 5e-324}, "key rate is not finite"),
    ])
    def test_extreme_finite_inputs_are_a_numerical_domain_error(self, protocol, extreme, message):
        params = KeyRateParams(**{"vm": 0.35, "transmittance": 0.5, "protocol": protocol, **extreme})
        with pytest.raises(NumericalDomainError, match=message):
            rate_asymptotic(params)

    @pytest.mark.parametrize("vm", [0.05, 0.1, 0.2])
    def test_small_variance_approaches_gaussian(self, vm):
        zg = covariance_z(Protocol.GAUSSIAN, vm)
        assert abs(covariance_z(Protocol.FOUR_STATE, vm) - zg) / zg < 0.01
        assert abs(covariance_z(Protocol.EIGHT_STATE, vm) - zg) / zg < 0.01

    @pytest.mark.parametrize("vm", [0.1, 0.5, 2.0, 20.0, 80.0])
    def test_discrete_correlations_are_ordered(self, vm):
        z4 = covariance_z(Protocol.FOUR_STATE, vm)
        z8 = covariance_z(Protocol.EIGHT_STATE, vm)
        zg = covariance_z(Protocol.GAUSSIAN, vm)
        assert z4 <= z8 + 1e-15
        assert z8 <= zg + 1e-15

    @pytest.mark.parametrize("vm", [0.3, 1.0, 4.0])
    def test_matches_series_oracle(self, vm):
        a2 = vm / 2.0
        for protocol, n in ((Protocol.FOUR_STATE, 4), (Protocol.EIGHT_STATE, 8)):
            oracle = correlation_from_weights(a2, constellation_weights_series(a2, n))
            assert covariance_z(protocol, vm) == pytest.approx(oracle, rel=1e-10)


class TestSymplecticSpectrum:
    def test_fifth_eigenvalue_is_exactly_one(self):
        p = params_20km()
        lams = symplectic_eigenvalues(p, covariance_z(Protocol.EIGHT_STATE, p.vm))
        assert lams[4] == 1.0

    def test_frozen_eight_state_spectrum(self):
        p = params_20km(protocol=Protocol.EIGHT_STATE)
        chi, z, lams = holevo_chi_be(p)
        assert z == pytest.approx(Z8_POINT, rel=REL)
        assert chi == pytest.approx(CHI8_POINT, rel=REL)
        np.testing.assert_allclose(lams[:4], LAM8_POINT, rtol=REL)

    def test_frozen_four_state_spectrum(self):
        p = params_20km(protocol=Protocol.FOUR_STATE)
        chi, z, lams = holevo_chi_be(p)
        assert z == pytest.approx(Z4_POINT, rel=REL)
        assert chi == pytest.approx(CHI4_POINT, rel=REL)
        np.testing.assert_allclose(lams[:4], LAM4_POINT, rtol=REL)

    def test_all_eigenvalues_physical(self):
        for distance in (5.0, 20.0, 50.0, 100.0):
            for vm in (0.1, 0.35, 5.0, 50.0):
                p = KeyRateParams(vm=vm, transmittance=transmittance_from_distance(distance),
                                  protocol=Protocol.EIGHT_STATE)
                _, _, lams = holevo_chi_be(p)
                assert all(l >= 1.0 for l in lams)

    def test_perfect_channel_leaks_nothing(self):
        # T = 1, xi = 0: Eve holds a purification of a pure state, so the
        # Holevo bound collapses to zero whatever the detector noise
        p = KeyRateParams(vm=0.35, transmittance=1.0, excess_noise=0.0,
                          protocol=Protocol.GAUSSIAN)
        chi, _, _ = holevo_chi_be(p)
        assert chi == pytest.approx(0.0, abs=1e-9)


class TestRates:
    def test_frozen_asymptotic_rates(self):
        r8 = rate_asymptotic(params_20km(protocol=Protocol.EIGHT_STATE))
        assert r8.key_rate == pytest.approx(K8_POINT, rel=REL)
        assert r8.mutual_information == pytest.approx(I_20KM, rel=REL)
        assert r8.holevo_term == pytest.approx(CHI8_POINT, rel=REL)
        r4 = rate_asymptotic(params_20km(protocol=Protocol.FOUR_STATE))
        assert r4.key_rate == pytest.approx(K4_POINT, rel=REL)

    def test_asymptotic_ml_rate_is_scaled_mutual_information(self):
        p = params_20km(protocol=Protocol.ML, lam=0.927)
        result = rate_asymptotic(p)
        assert result.key_rate == pytest.approx(0.98 * 0.927 * I_20KM, rel=REL)
        assert result.holevo_term == 0.0

    def test_ml_eve_term_is_charged(self):
        base = rate_asymptotic(params_20km(protocol=Protocol.ML)).key_rate
        taxed = rate_asymptotic(params_20km(protocol=Protocol.ML, ml_eve_term=0.01)).key_rate
        assert taxed == pytest.approx(base - 0.01, rel=1e-12)

    def test_frozen_finite_size_penalty(self):
        p = params_20km(n=500_000, big_n=1_000_000)
        assert delta_n(p) == pytest.approx(DELTA_HALF_MILLION, rel=REL)

    def test_penalty_formula_and_shrinkage(self):
        p = params_20km(n=10_000, big_n=20_000)
        want = 7.0 * math.sqrt(math.log2(2.0 / 1e-10) / 10_000) + (2.0 / 10_000) * math.log2(1e10)
        assert delta_n(p) == pytest.approx(want, rel=1e-12)
        assert delta_n(params_20km(n=10**8, big_n=10**8)) < delta_n(p)

    def test_penalty_requires_block_sizes(self):
        with pytest.raises(InvalidParameterError):
            delta_n(params_20km())

    def test_frozen_finite_size_ml_rate(self):
        p = KeyRateParams(
            vm=0.35, transmittance=transmittance_from_distance(10.0), protocol=Protocol.ML, lam=0.927,
            n=500_000, big_n=1_000_000,
        )
        result = rate_finite(p)
        assert result.key_rate == pytest.approx(K_ML_FINITE_10KM, rel=REL)
        assert result.key_rate > 0.0
        assert result.delta_n == pytest.approx(DELTA_HALF_MILLION, rel=REL)

    def test_finite_size_composition(self):
        p = params_20km(protocol=Protocol.EIGHT_STATE, n=500_000, big_n=1_000_000)
        result = rate_finite(p)
        want = 0.5 * (0.98 * result.mutual_information - result.holevo_term - result.delta_n)
        assert result.key_rate == pytest.approx(want, rel=1e-12)

    def test_finite_size_approaches_the_asymptotic_rate(self):
        # with n = N the only gap is the vanishing penalty Delta(n)
        big = 10**14
        asym = rate_asymptotic(params_20km()).key_rate
        fin = rate_finite(params_20km(n=big, big_n=big)).key_rate
        assert fin < asym
        assert asym - fin < 1e-4

    def test_rates_decay_with_distance(self):
        rates = [
            rate_asymptotic(KeyRateParams(vm=0.35, transmittance=transmittance_from_distance(d),
                                          protocol=Protocol.EIGHT_STATE)).key_rate
            for d in (5.0, 20.0, 50.0, 80.0)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_more_states_help_at_fixed_variance(self):
        # the eight-state correlation is closer to Gaussian, so its rate
        # dominates the four-state one at the same operating point
        for vm in (0.35, 1.0, 3.0):
            k4 = rate_asymptotic(params_20km(vm=vm, protocol=Protocol.FOUR_STATE)).key_rate
            k8 = rate_asymptotic(params_20km(vm=vm, protocol=Protocol.EIGHT_STATE)).key_rate
            assert k8 >= k4

    @pytest.mark.parametrize("protocol, n_states", [
        (Protocol.FOUR_STATE, 4), (Protocol.EIGHT_STATE, 8), (Protocol.GAUSSIAN, None),
    ])
    @pytest.mark.parametrize("vm, distance, xi, eta, v_el", [
        (0.35, 20.0, 0.01, 0.6, 0.05),
        (0.4, 100.0, 0.01, 0.6, 0.05),
        (1.0, 50.0, 0.02, 0.8, 0.1),
        (5.0, 10.0, 0.0, 0.5, 0.0),
    ])
    def test_matches_covariance_matrix_oracle(self, protocol, n_states, vm, distance, xi, eta, v_el):
        p = KeyRateParams(vm=vm, transmittance=transmittance_from_distance(distance), excess_noise=xi, eta=eta,
                          v_el=v_el, beta=0.95, protocol=protocol)
        want = covariance_matrix_rate(vm, p.transmittance, xi, eta, v_el, 0.95, n_states)
        assert rate_asymptotic(p).key_rate == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestOptimizeVm:
    def test_golden_section_on_parabola(self, monkeypatch):
        def parabola(vms):
            return -(np.asarray(vms) - 2.0) ** 2

        monkeypatch.setattr(keyrate, "_XTOL", 0.001)
        monkeypatch.setattr(keyrate, "key_rates", lambda params, vms, t: parabola(vms))
        monkeypatch.setattr(keyrate, "rate_asymptotic",
                            lambda params: keyrate.RateResult(params.protocol, float(parabola(params.vm)), 1.0, 0.0))
        [best] = optimize_vm([10.0], KeyRateParams(vm=1.0, transmittance=0.5), v_lo=0.05, v_hi=5.0)
        assert best.vm == pytest.approx(2.0, abs=0.001)

    def test_matches_dense_grid_scan(self):
        params = KeyRateParams(vm=1.0, transmittance=0.5)
        results = optimize_vm([50.0], params, v_lo=0.05, v_hi=20.0)
        best = results[0]
        dense = np.geomspace(0.05, 20.0, 4000)
        dense_rates = [
            rate_asymptotic(dataclasses.replace(
                params, vm=float(v),
                transmittance=10.0 ** (-0.2 * 50.0 / 10.0),
                protocol=Protocol.EIGHT_STATE,
            )).key_rate
            for v in dense
        ]
        assert best.key_rate >= max(dense_rates) - 1e-6
        assert not best.no_positive_rate
        assert best.key_rate > 0

    def test_flags_distances_with_no_positive_rate(self):
        params = KeyRateParams(vm=1.0, transmittance=0.5)
        results = optimize_vm([10.0, 400.0], params)
        assert not results[0].no_positive_rate
        assert results[1].no_positive_rate

    @pytest.mark.parametrize("plateau", [0, 10])
    def test_equal_maxima_bracket_from_the_first(self, monkeypatch, plateau):
        # the rate is flat from grid point `plateau` on; np.argmax picked the first of equal maxima, and so
        # must the coarse search, so golden-section search runs between the grid points either side of it
        grid = [float(v) for v in np.geomspace(0.05, 20.0, keyrate._COARSE_POINTS)]
        asked = []

        def plateau_rates(params, vms, transmittances):
            asked.extend(np.asarray(vms).tolist())
            return np.minimum(vms, grid[plateau])

        def plateau_rate(params):
            asked.append(params.vm)
            return keyrate.RateResult(params.protocol, min(params.vm, grid[plateau]), 1.0, 0.0)

        monkeypatch.setattr(keyrate, "key_rates", plateau_rates)
        monkeypatch.setattr(keyrate, "rate_asymptotic", plateau_rate)
        [best] = optimize_vm([20.0], KeyRateParams(vm=1.0, transmittance=0.5))
        lo, hi = grid[max(plateau - 1, 0)], grid[plateau + 1]
        assert asked[:len(grid)] == grid
        assert len(asked) > len(grid) + 2
        assert all(lo <= vm <= hi for vm in asked[len(grid):])
        assert lo <= best.vm <= hi

    def test_invalid_bracket_rejected(self):
        params = KeyRateParams(vm=1.0, transmittance=0.5)
        with pytest.raises(InvalidParameterError):
            optimize_vm([10.0], params, v_lo=2.0, v_hi=1.0)
        # an infinite bound was a math domain error
        for bad in ({"v_hi": math.inf}, {"v_hi": math.nan}, {"v_lo": math.nan}, {"v_lo": -math.inf}):
            with pytest.raises(InvalidParameterError):
                optimize_vm([10.0], params, **bad)

    @pytest.mark.parametrize("bad", [{"v_lo": True}, {"v_hi": True}, {"v_lo": "0.05"}, {"v_hi": None}])
    def test_non_real_arguments_rejected(self, bad):
        # v_lo=True once searched from 1.0, and a string was a raw TypeError
        params = KeyRateParams(vm=1.0, transmittance=0.5)
        with pytest.raises(InvalidParameterError, match="must be a real number"):
            optimize_vm([10.0], params, **bad)

    @pytest.mark.parametrize("distance", [True, "10", None])
    def test_non_real_distances_rejected(self, distance):
        # True once gave a row for 1.0 km, and a string or None was a raw TypeError
        params = KeyRateParams(vm=1.0, transmittance=0.5)
        with pytest.raises(InvalidParameterError, match="distance_km must be a real number"):
            optimize_vm([distance], params)

    @pytest.mark.parametrize("distances", [None, 10.0, "10", b"10"])
    def test_non_iterable_distances_rejected(self, distances):
        # None was once a raw TypeError ('NoneType' object is not iterable), and "10" an error naming
        # its character '1'
        params = KeyRateParams(vm=1.0, transmittance=0.5)
        with pytest.raises(InvalidParameterError, match="distances_km must be an iterable of distances"):
            optimize_vm(distances, params)

    @pytest.mark.parametrize("distance", [1000.0, 1500.0])
    def test_no_key_where_the_channel_carries_no_information(self, distance):
        # chi_BE once cancelled to -4.44e-16 here, so a zero rate came out positive and a key was claimed
        params = KeyRateParams(vm=0.35, transmittance=transmittance_from_distance(distance),
                               protocol=Protocol.EIGHT_STATE)
        result = rate_asymptotic(params)
        assert (result.mutual_information, result.holevo_term, result.key_rate) == (0.0, 0.0, 0.0)
        [best] = optimize_vm([distance], params)
        assert best.key_rate == 0.0
        assert best.no_positive_rate

    def test_params_must_be_key_rate_params(self):
        with pytest.raises(InvalidParameterError, match="params must be a KeyRateParams, got None"):
            optimize_vm([10.0], None)

    def test_xtol_below_the_float_resolution_returns(self):
        # the ML rate rises with V_m, so the search closes on 1e18, where adjacent floats are 128 apart and
        # the 0.01 tolerance is out of reach: the step cap ends it; a separate process bounds a hang
        code = ("from mlcvqkd import keyrate; "
                "calls = []; rate = keyrate.rate_asymptotic; rates = keyrate.key_rates; "
                "keyrate.rate_asymptotic = lambda p: calls.append(p) or rate(p); "
                "keyrate.key_rates = lambda p, vms, t: calls.extend(vms) or rates(p, vms, t); "
                "params = keyrate.KeyRateParams(vm=1.0, transmittance=0.5, protocol='ml'); "
                "best = keyrate.optimize_vm([10.0], params, v_lo=1e17, v_hi=1e18)[0]; "
                "print(len(calls), 9e17 < best.vm <= 1e18, best.key_rate > 0)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert result.returncode == 0, result.stderr
        # kernel points: the coarse grid, the first two golden-section points and one per capped step; then
        # one more at the optimum
        assert result.stdout.split() == [str(32 + 2 + keyrate._GOLDEN_STEPS + 1), "True", "True"]


FINITE_BLOCK = {"n": 500_000, "big_n": 1_000_000}


class TestZOncePerVm:
    """key_rates computes Z once per distinct V_m of a call; that changes no bit of a rate."""

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_optimize_vm_equals_the_per_point_search(self, protocol, finite):
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=protocol, **(FINITE_BLOCK if finite else {}))
        distances = range(0, 151)
        got = optimize_vm(distances, params)
        assert got == per_point_optimize_vm(protocol, distances, params, finite=finite)
        if finite:  # the finite-size rows cross the positivity edge inside 150 km
            assert {r.no_positive_rate for r in got} == {False, True}

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("vm", [1e-3, 0.35, 1.0, 2.0, 5.0, 50.0, 1400.0, 2000.0])
    def test_repeated_vm_takes_one_z_and_gives_the_scalar_rate(self, protocol, vm, monkeypatch):
        # the V_m repeats and interleaves with two others across two kernel chunks; above V_m of about
        # 1420 the discrete weights overflow, and the scalar error of the first such point is raised
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=protocol)
        vms = [vm, 0.5, vm, 3.0] * 150
        ts = [transmittance_from_distance(d) for d in KERNEL_DISTANCES] * 43
        ts = ts[:len(vms)]
        calls = collections.Counter()

        def counted_z(protocol, vm, _z=keyrate._covariance_z):
            calls[vm] += 1
            return _z(protocol, vm)

        monkeypatch.setattr(keyrate, "_covariance_z", counted_z)
        got = kernel_outcome(params, vms, ts)
        monkeypatch.undo()
        assert repr(got) == repr(scalar_outcome(params, vms, ts))
        if type(got) is list:
            chunks = [vms[i:i + keyrate._KERNEL_POINTS] for i in range(0, len(vms), keyrate._KERNEL_POINTS)]
            assert len(chunks) == 2
            want = collections.Counter(v for chunk in chunks for v in set(chunk))
            assert calls == (collections.Counter() if protocol is Protocol.ML else want)
        else:
            assert protocol in (Protocol.FOUR_STATE, Protocol.EIGHT_STATE) and vm == 2000.0
            assert got[1] == "constellation weights overflow (vm=2000.0)"


@st.composite
def rate_points(draw):
    """Valid KeyRateParams of every protocol, asymptotic or finite-size."""
    block = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)))
    return KeyRateParams(
        vm=draw(st.floats(min_value=1e-3, max_value=100.0)),
        transmittance=draw(st.floats(min_value=1e-5, max_value=1.0)),
        excess_noise=draw(st.floats(min_value=0.0, max_value=0.3)),
        eta=draw(st.floats(min_value=0.05, max_value=1.0)),
        v_el=draw(st.floats(min_value=0.0, max_value=0.5)),
        beta=draw(st.floats(min_value=0.5, max_value=1.0)),
        lam=draw(st.floats(min_value=0.5, max_value=1.0)),
        ml_eve_term=draw(st.floats(min_value=0.0, max_value=0.1)),
        protocol=draw(st.sampled_from(list(Protocol))),
        **({} if block is None else {"n": max(block // 2, 1), "big_n": block}),
    )


class TestRateCallCounts:
    """Tables and curves come from the array kernel alone: a keyrate table is
    one kernel evaluation, optimize_vm reads its search points and its
    optima from key_rates, and neither makes a public rate_asymptotic or
    rate_finite call. The kernel points are those of the earlier scalar
    loops, one a table row and one a search point."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()
        for name in ("rate_asymptotic", "rate_finite"):
            def counted(params, _rate=getattr(keyrate, name), _name=name):
                counts[_name] += 1
                return _rate(params)
            monkeypatch.setattr(keyrate, name, counted)

        def counted_points(_rates):
            def rates(params, vms, transmittances):
                counts["kernel_points"] += len(vms)
                return _rates(params, vms, transmittances)
            return rates

        monkeypatch.setattr(keyrate, "key_rates", counted_points(keyrate.key_rates))
        monkeypatch.setattr(cli, "_rate_columns", counted_points(cli._rate_columns))
        return counts

    def test_asymptotic_optimize(self, calls):
        optimize_vm([10.0, 80.0], KeyRateParams(vm=1.0, transmittance=0.5, protocol="four-state"))
        assert calls == {"kernel_points": 83}

    def test_finite_optimize(self, calls):
        optimize_vm([10.0, 80.0], KeyRateParams(vm=1.0, transmittance=0.5, protocol="eight-state",
                                                n=500_000, big_n=1_000_000))
        assert calls == {"kernel_points": 86}

    def test_keyrate_command(self, calls, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"keyrate": {"distances_km": list(range(151))}}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path), "keyrate"]) == 0
        assert calls == {"kernel_points": 151}


KERNEL_DISTANCES = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0, 80.0, 100.0, 150.0, 200.0, 300.0, 500.0, 1000.0, 1500.0)


def scalar_outcome(params: KeyRateParams, vms, transmittances):
    """The public rate at each point in turn: the keys, or the error of the first point that raises."""
    rate_of = rate_asymptotic if params.n is None else rate_finite
    try:
        return [rate_of(dataclasses.replace(params, vm=vm, transmittance=t)).key_rate
                for vm, t in zip(vms, transmittances)]
    except NumericalDomainError as exc:
        return type(exc), str(exc), exc.values


def kernel_outcome(params: KeyRateParams, vms, transmittances):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            keys = key_rates(params, vms, transmittances)
    except NumericalDomainError as exc:
        return type(exc), str(exc), exc.values
    assert type(keys) is np.ndarray and keys.dtype == np.float64 and keys.shape == (len(vms),)
    return keys.tolist()


class TestKeyRateKernel:
    """key_rates returns, bit for bit, the public scalar rate at every point, or raises its error."""

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_equals_the_scalar_rate_bit_for_bit(self, protocol, finite):
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=protocol, **(FINITE_BLOCK if finite else {}))
        grid = np.geomspace(0.05, 20.0, 97).tolist()  # 97 x 14 points: more than one kernel chunk
        vms = grid * len(KERNEL_DISTANCES)
        ts = [transmittance_from_distance(d) for d in KERNEL_DISTANCES for _ in grid]
        got, want = kernel_outcome(params, vms, ts), scalar_outcome(params, vms, ts)
        assert len(vms) > keyrate._KERNEL_POINTS
        assert repr(got) == repr(want)  # repr tells every float bit apart, -0.0 from 0.0 included
        if protocol is not Protocol.ML and not finite:
            # I is 0 at 1000 and 1500 km, and where chi_BE cancels below 0 it is clamped, so the key is exactly 0
            far = got[-2 * len(grid):]
            assert max(far) == 0.0 and far.count(0.0) > len(grid) // 2

    @given(p=rate_points(), points=st.lists(st.tuples(st.floats(min_value=1e-3, max_value=100.0),
                                                      st.floats(min_value=1e-5, max_value=1.0)), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_rate_on_drawn_points(self, p, points):
        vms, ts = [vm for vm, _ in points], [t for _, t in points]
        assert repr(kernel_outcome(p, vms, ts)) == repr(scalar_outcome(p, vms, ts))

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("field, value, message", [
        ("eta", 5e-324, "key rate is not finite"),
        ("eta", 1e-300, "covariance terms overflow"),
    ])
    def test_a_failing_point_raises_the_scalar_error(self, finite, field, value, message):
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=Protocol.EIGHT_STATE, **{field: value},
                               **(FINITE_BLOCK if finite else {}))
        vms, ts = [0.35, 1.0, 5.0], [0.9, 0.5, 0.1]
        got = kernel_outcome(params, vms, ts)
        assert message in got[1]
        assert repr(got) == repr(scalar_outcome(params, vms, ts))

    @pytest.mark.parametrize("protocol", [Protocol.FOUR_STATE, Protocol.EIGHT_STATE])
    def test_the_first_failing_point_in_order_raises(self, protocol):
        # the constellation weights overflow above V_m of about 1420; 5000 comes before 3000, which
        # falls in the next chunk of the call, and 2000 before 5000 in the same chunk
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=protocol)
        chunk = keyrate._KERNEL_POINTS
        vms = [1.0] * (3 * chunk)
        vms[chunk + 100], vms[2 * chunk + 10] = 5000.0, 3000.0
        with pytest.raises(NumericalDomainError, match=r"constellation weights overflow \(vm=5000.0\)"):
            key_rates(params, vms, [0.5] * len(vms))
        vms[chunk + 50] = 2000.0
        assert "vm=2000.0" in kernel_outcome(params, vms, [0.5] * len(vms))[1]

    def test_empty_input_is_an_empty_array(self):
        keys = key_rates(KeyRateParams(vm=1.0, transmittance=0.5), [], np.array([]))
        assert keys.shape == (0,) and keys.dtype == np.float64

    @pytest.mark.parametrize("vms, transmittances, error, message", [
        ([1.0, -1.0], [0.5, 0.5], InvalidParameterError, "modulation variance must be finite and positive, got -1.0"),
        ([1.0, math.nan], [0.5, 0.5], InvalidParameterError,
         "modulation variance must be finite and positive, got nan"),
        ([math.inf], [0.5], InvalidParameterError, "modulation variance must be finite and positive, got inf"),
        ([1.0], [1.5], InvalidParameterError, r"transmittance must be in \(0, 1\], got 1.5"),
        ([1.0], [0.0], InvalidParameterError, r"transmittance must be in \(0, 1\], got 0.0"),
        ([1.0], [0.5, 0.2], InvalidInputError, r"transmittances must have shape \(1,\).*, got float64 of shape \(2,\)"),
        ([True], [0.5], InvalidInputError, r"vms must have shape \(any,\).*, got bool"),
        (["1"], [0.5], InvalidInputError, r"vms must have shape \(any,\).*, got <U1"),
        (None, [0.5], InvalidInputError, r"vms must have shape \(any,\).*, got object"),
        (1.0, [0.5], InvalidInputError, r"vms must have shape \(any,\).*, got float64 of shape \(\)"),
        ([[1.0]], [0.5], InvalidInputError, r"vms must have shape \(any,\).*, got float64 of shape \(1, 1\)"),
        ([[1.0], [1.0, 2.0]], [0.5], InvalidInputError, r"vms must have shape \(any,\).*, got a ragged nesting"),
        ([1.0], [None], InvalidInputError, r"transmittances must have shape \(1,\).*, got object"),
    ])
    def test_bad_points_rejected(self, vms, transmittances, error, message):
        with pytest.raises(error, match=message):
            key_rates(KeyRateParams(vm=1.0, transmittance=0.5), vms, transmittances)

    @pytest.mark.parametrize("field, value", [
        *[(field, value) for field in ("vm", "transmittance")
          for value in (0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf)],
        ("vm", -1e308), ("transmittance", 1.5), ("transmittance", math.nextafter(1.0, 2.0)),
        ("transmittance", 1e308),
    ])
    def test_the_first_bad_value_raises_the_constructor_error(self, field, value):
        # a second bad value later in the same array must not be the one reported
        p = KeyRateParams(vm=1.0, transmittance=0.5, **FINITE_BLOCK)
        with pytest.raises(InvalidParameterError) as want:
            dataclasses.replace(p, **{field: value})
        points = {"vm": [1.0, 2.0, 3.0, 4.0], "transmittance": [0.5, 0.4, 0.3, 0.2]}
        points[field][1], points[field][3] = value, -2.0
        with pytest.raises(InvalidParameterError) as got:
            key_rates(p, points["vm"], points["transmittance"])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("rate",[rate_asymptotic, rate_finite, lambda p: key_rates(p, [1.0], [0.5])])
    def test_params_must_be_key_rate_params(self, rate):
        # None was once a raw AttributeError ('NoneType' object has no attribute 'n')
        with pytest.raises(InvalidParameterError, match="params must be a KeyRateParams, got None"):
            rate(None)

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", [Protocol.GAUSSIAN, Protocol.FOUR_STATE, Protocol.EIGHT_STATE])
    def test_optimize_vm_equals_the_per_point_search_field_for_field(self, protocol, finite):
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=protocol, **(FINITE_BLOCK if finite else {}))
        distances = range(10, 151)
        got = optimize_vm(distances, params)
        want = per_point_optimize_vm(protocol, distances, params, finite=finite)
        assert [repr(dataclasses.astuple(r)) for r in got] == [repr(dataclasses.astuple(r)) for r in want]

    @pytest.mark.parametrize("params, v_hi, message", [
        (KeyRateParams(vm=1.0, transmittance=0.5, eta=5e-324), 20.0, "key rate is not finite"),
        (KeyRateParams(vm=1.0, transmittance=0.5, protocol="four-state"), 5000.0, "constellation weights overflow"),
    ])
    def test_optimize_vm_raises_the_per_point_error(self, params, v_hi, message):
        with pytest.raises(NumericalDomainError, match=message) as want:
            per_point_optimize_vm(params.protocol, [10.0, 20.0], params, v_hi=v_hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError) as got:
                optimize_vm([10.0, 20.0], params, v_hi=v_hi)
        assert str(got.value) == str(want.value)


class TestRateColumns:
    """_rate_columns, which a keyrate table writes, gives the key_rate,
    mutual_information and holevo_term of the public RateResult at each
    point, bit for bit."""

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_columns_are_the_scalar_result_fields(self, protocol, finite):
        params = KeyRateParams(vm=1.0, transmittance=0.5, protocol=protocol, ml_eve_term=0.03,
                               **(FINITE_BLOCK if finite else {}))
        grid = np.geomspace(0.05, 20.0, 41).tolist()  # 41 x 14 points: more than one kernel chunk
        vms = grid * len(KERNEL_DISTANCES)
        ts = [transmittance_from_distance(d) for d in KERNEL_DISTANCES for _ in grid]
        assert len(vms) > keyrate._KERNEL_POINTS
        columns = keyrate._rate_columns(params, vms, ts)
        assert all(type(c) is np.ndarray and c.dtype == np.float64 and c.shape == (len(vms),) for c in columns)
        rate_of = rate_finite if finite else rate_asymptotic
        results = [rate_of(dataclasses.replace(params, vm=vm, transmittance=t)) for vm, t in zip(vms, ts)]
        want = [[r.key_rate for r in results], [r.mutual_information for r in results],
                [r.holevo_term for r in results]]
        # repr tells every float bit apart, -0.0 from 0.0 included
        assert repr([c.tolist() for c in columns]) == repr(want)
        assert repr(columns[0].tolist()) == repr(key_rates(params, vms, ts).tolist())


RATE_BODIES = {False: (rate_asymptotic, separate_rate_asymptotic), True: (rate_finite, separate_rate_finite)}


def rate_or_error(rate, p: KeyRateParams):
    try:
        return rate(p)
    except (InvalidParameterError, NumericalDomainError) as exc:
        return type(exc), str(exc)


class TestOneRateBody:
    """rate_asymptotic and rate_finite share one body; it returns, bit for bit, what their separate bodies did."""

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_equals_the_separate_bodies_on_a_grid(self, protocol, finite):
        rate, separate = RATE_BODIES[finite]
        results = collections.Counter()
        for vm, t, xi, eta, v_el, beta, lam, eve in itertools.product(
                (0.05, 0.35, 5.0, 50.0), (1.0, 0.5, 0.01, 1e-5), (0.0, 0.01, 0.2), (0.05, 0.6, 1.0),
                (0.0, 0.05), (0.9, 0.98), (0.5, 0.927), (0.0, 0.03)):
            p = KeyRateParams(vm=vm, transmittance=t, excess_noise=xi, eta=eta, v_el=v_el, beta=beta, lam=lam,
                              ml_eve_term=eve, protocol=protocol, **(FINITE_BLOCK if finite else {}))
            got, want = rate_or_error(rate, p), rate_or_error(separate, p)
            # == on every field, and repr, which also tells -0.0 from 0.0
            assert got == want and repr(got) == repr(want), p
            results[type(got) is keyrate.RateResult and got.key_rate > 0] += 1
        assert results[True] and results[False]  # the grid spans positive and nonpositive rates

    @given(p=rate_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_separate_bodies_on_drawn_points(self, p):
        # a point without n and big_n gives the finite rate's "needs n and big_n" error
        for rate, separate in RATE_BODIES.values():
            got, want = rate_or_error(rate, p), rate_or_error(separate, p)
            assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_non_finite_key_raises_the_constructors_error(self, protocol, finite):
        # eta = 5e-324, as in {"keyrate": {"eta": 5e-324}}, makes chi_het infinite and the key NaN
        p = KeyRateParams(vm=0.35, transmittance=0.5, eta=5e-324, protocol=protocol,
                          **(FINITE_BLOCK if finite else {}))
        rate, separate = RATE_BODIES[finite]
        with pytest.raises(NumericalDomainError, match="key rate is not finite") as got:
            rate(p)
        with pytest.raises(NumericalDomainError) as want:
            separate(p)
        assert str(got.value) == str(want.value)
        assert repr(got.value.values) == repr(want.value.values)
        assert math.isnan(got.value.values["key_rate"])
