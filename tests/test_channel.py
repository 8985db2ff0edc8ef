import math
import re

import numpy as np
import pytest

from mlcvqkd.channel import (
    ChannelParams,
    RandomSource,
    transmit_batch,
    transmittance_from_distance,
)
from mlcvqkd.errors import InvalidParameterError
from mlcvqkd.statespace import build_scheme
from oracles import bayes_optimal_labels, labels_of

QUIET = 1e-18  # effectively noiseless but keeps the variance positive


class TestTransmittance:
    def test_zero_distance_is_lossless(self):
        assert transmittance_from_distance(0.0) == 1.0

    def test_fifty_km_at_default_loss(self):
        assert transmittance_from_distance(50.0) == pytest.approx(0.1)

    def test_twenty_km_at_default_loss(self):
        assert transmittance_from_distance(20.0) == pytest.approx(10.0 ** -0.4)

    def test_custom_loss_coefficient(self):
        assert transmittance_from_distance(10.0, loss_db_per_km=0.5) == pytest.approx(10.0 ** -0.5)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidParameterError):
            transmittance_from_distance(-1.0)

    @pytest.mark.parametrize("name", ["distance_km", "loss_db_per_km"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_rejected(self, name, value):
        # NaN once gave a NaN transmittance and inf 0.0, which failed later and named the transmittance
        args = {"distance_km": 10.0, "loss_db_per_km": 0.2, name: value}
        want = f"must be finite, got {args['distance_km']} km at {args['loss_db_per_km']} dB/km"
        with pytest.raises(InvalidParameterError, match=want):
            transmittance_from_distance(**args)

    @pytest.mark.parametrize("distance, loss", [(20000.0, 0.2), (1e300, 1e-10), (1700.0, 2.0)])
    def test_distance_whose_transmittance_underflows_rejected(self, distance, loss):
        # 20 000 km once returned T = 0.0, and the error came later and named the transmittance
        want = re.escape(f"{distance} km at {loss} dB/km transmits nothing")
        with pytest.raises(InvalidParameterError, match=want):
            transmittance_from_distance(distance, loss)
        with pytest.raises(InvalidParameterError, match=want):
            ChannelParams(distance_km=distance, loss_db_per_km=loss)

    def test_subnormal_transmittance_accepted(self):
        assert 0.0 < transmittance_from_distance(16000.0) < 1e-319

    @pytest.mark.parametrize("name", ["distance_km", "loss_db_per_km"])
    @pytest.mark.parametrize("value", [True, "10", None])
    def test_non_real_arguments_rejected(self, name, value):
        # True once gave the transmittance of 1 km, and a string or None was a raw TypeError
        with pytest.raises(InvalidParameterError, match=f"{name} must be a real number"):
            transmittance_from_distance(**{"distance_km": 10.0, name: value})


class TestChannelParams:
    def test_noise_variance_combines_shot_and_excess(self):
        params = ChannelParams(distance_km=50.0, excess_noise=0.5)
        assert params.noise_variance == pytest.approx(1.0 + 0.1 * 0.5)

    def test_default_channel_is_shot_noise_limited(self):
        params = ChannelParams(distance_km=0.0)
        assert params.noise_variance == 1.0
        assert params.transmittance == 1.0

    def test_negative_excess_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChannelParams(distance_km=10.0, excess_noise=-0.01)

    def test_zero_shot_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChannelParams(distance_km=10.0, shot_noise=0.0)

    @pytest.mark.parametrize("field", [
        "distance_km", "excess_noise", "phase_drift", "loss_db_per_km", "shot_noise",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"channel {field} must be finite"):
            ChannelParams(**{"distance_km": 1.0, field: value})

    @pytest.mark.parametrize("field", [
        "distance_km", "excess_noise", "phase_drift", "loss_db_per_km", "shot_noise",
    ])
    @pytest.mark.parametrize("value", [True, "1", None])
    def test_non_real_value_rejected(self, field, value):
        # a bool once passed as 1, and a string or None was a raw TypeError
        with pytest.raises(InvalidParameterError, match=f"channel {field} must be a real number"):
            ChannelParams(**{"distance_km": 1.0, field: value})

    def test_real_values_are_plain_floats(self):
        params = ChannelParams(distance_km=np.float32(20.0), excess_noise=0, loss_db_per_km=np.int64(1))
        assert [type(getattr(params, f)) for f in ("distance_km", "excess_noise", "loss_db_per_km")] == [float] * 3
        assert params == ChannelParams(distance_km=20.0, excess_noise=0.0, loss_db_per_km=1.0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        points = np.array([[1.0, 0.5], [-0.3, 2.0], [0.0, 0.0]])
        params = ChannelParams(distance_km=20.0, excess_noise=0.05)
        out1 = transmit_batch(points, params, RandomSource(123))
        out2 = transmit_batch(points, params, RandomSource(123))
        np.testing.assert_array_equal(out1, out2)

    def test_different_seeds_differ(self):
        points = np.ones((10, 2))
        params = ChannelParams(distance_km=20.0)
        out1 = transmit_batch(points, params, RandomSource(1))
        out2 = transmit_batch(points, params, RandomSource(2))
        assert not np.array_equal(out1, out2)

    def test_split_children_are_reproducible_and_distinct(self):
        a, b = RandomSource(99).split(2)
        a2, b2 = RandomSource(99).split(2)
        draw = lambda src: src.normal(1.0, 8)
        np.testing.assert_array_equal(draw(a), draw(a2))
        np.testing.assert_array_equal(draw(b), draw(b2))
        assert not np.array_equal(draw(RandomSource(99).split(2)[0]), draw(RandomSource(99).split(2)[1]))

    def test_bad_seed_rejected(self):
        with pytest.raises(InvalidParameterError):
            RandomSource(-5)
        with pytest.raises(InvalidParameterError):
            RandomSource("abc")
        with pytest.raises(InvalidParameterError):
            RandomSource(True)  # once seeded as 1


class TestTransmitGeometry:
    def test_identity_channel_preserves_point(self):
        params = ChannelParams(distance_km=0.0, shot_noise=QUIET)
        (q, p), = transmit_batch(np.array([[1.25, -0.5]]), params, RandomSource(0))
        assert q == pytest.approx(1.25, abs=1e-6)
        assert p == pytest.approx(-0.5, abs=1e-6)

    def test_quarter_turn_maps_p_axis_to_q_axis(self):
        # phi0 = pi/2: (0, 1) -> (1, 0) up to attenuation
        params = ChannelParams(distance_km=0.0, phase_drift=math.pi / 2, shot_noise=QUIET)
        (q, p), = transmit_batch(np.array([[0.0, 1.0]]), params, RandomSource(0))
        assert q == pytest.approx(1.0, abs=1e-6)
        assert p == pytest.approx(0.0, abs=1e-6)

    def test_rotation_is_clockwise_for_positive_drift(self):
        params = ChannelParams(distance_km=0.0, phase_drift=0.1, shot_noise=QUIET)
        (q, p), = transmit_batch(np.array([[1.0, 0.0]]), params, RandomSource(0))
        assert q == pytest.approx(math.cos(0.1), abs=1e-6)
        assert p == pytest.approx(-math.sin(0.1), abs=1e-6)

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.5])
    def test_amplitude_contracts_by_root_transmittance(self, phi):
        params = ChannelParams(distance_km=30.0, phase_drift=phi, shot_noise=QUIET)
        (q, p), = transmit_batch(np.array([[3.0, 4.0]]), params, RandomSource(7))
        expected = 5.0 * math.sqrt(params.transmittance)
        assert math.hypot(q, p) == pytest.approx(expected, rel=1e-9)

    def test_empty_batch_keeps_shape(self):
        params = ChannelParams(distance_km=10.0)
        out = transmit_batch(np.empty((0, 2)), params, RandomSource(0))
        assert out.shape == (0, 2)

    def test_wrong_shape_rejected(self):
        params = ChannelParams(distance_km=10.0)
        with pytest.raises(InvalidParameterError):
            transmit_batch(np.ones((4, 3)), params, RandomSource(0))


class TestTransmitStatistics:
    @pytest.mark.parametrize(
        "distance,xi,phi",
        [(0.0, 0.0, 0.0), (20.0, 0.05, 0.0), (20.0, 0.05, math.pi / 2)],
    )
    def test_batch_moments_match_analytic_values(self, distance, xi, phi):
        n = 200_000
        q0, p0 = 2.0, -1.0
        params = ChannelParams(distance_km=distance, excess_noise=xi, phase_drift=phi)
        points = np.tile([q0, p0], (n, 1))
        out = transmit_batch(points, params, RandomSource(2024))

        root_t = math.sqrt(params.transmittance)
        mean_q = root_t * (q0 * math.cos(phi) + p0 * math.sin(phi))
        mean_p = root_t * (p0 * math.cos(phi) - q0 * math.sin(phi))
        var = params.noise_variance

        # 200k samples: mean stderr ~ sqrt(var/n), variance stderr ~ var*sqrt(2/n)
        assert out[:, 0].mean() == pytest.approx(mean_q, abs=4 * math.sqrt(var / n))
        assert out[:, 1].mean() == pytest.approx(mean_p, abs=4 * math.sqrt(var / n))
        assert out[:, 0].var() == pytest.approx(var, rel=0.03)
        assert out[:, 1].var() == pytest.approx(var, rel=0.03)

    def test_quadrature_noise_is_uncorrelated(self):
        n = 200_000
        params = ChannelParams(distance_km=20.0, excess_noise=0.05)
        out = transmit_batch(np.zeros((n, 2)), params, RandomSource(5))
        corr = np.corrcoef(out[:, 0], out[:, 1])[0, 1]
        assert abs(corr) < 0.01


class TestBayesOptimalDecoderOracle:
    @pytest.mark.parametrize("kind", ["qpsk", "8psk"])
    def test_recovers_every_label_set_on_a_near_noiseless_channel(self, kind):
        # lossless, no excess noise, and shot noise small beside the ring
        # radius sqrt(200): adjacent 8PSK states sit over 10 sigma apart
        scheme = build_scheme(kind, 400.0)
        params = ChannelParams(distance_km=0.0, excess_noise=0.0)
        rng = RandomSource(3)
        drawn = rng.integers(0, scheme.n_states, 400)
        labelsets = [set(labels_of(point)) for point in scheme.points]
        received = transmit_batch(scheme.points[drawn], params, rng)
        decoded = bayes_optimal_labels(
            received.tolist(), scheme.points.tolist(), labelsets,
            params.transmittance, params.noise_variance,
        )
        assert set(drawn.tolist()) == set(range(scheme.n_states))
        assert decoded == [labelsets[i] for i in drawn]
