"""errors.array is the one rule for array arguments: every public function
taking an array returns or raises an MlcvqkdError, whatever it is given.
Every public function also returns or raises one when given None in
place of any argument."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlcvqkd
from mlcvqkd import protocol
from mlcvqkd.channel import ChannelParams, RandomSource, transmit_batch
from mlcvqkd.classifier import QmlcParams, TrainedClassifier, posterior_ratios, predict_batch, train
from mlcvqkd.errors import InvalidInputError, MlcvqkdError, array
from mlcvqkd.features import extract_batch, filter_features, resolve_threshold
from mlcvqkd.keyrate import KeyRateParams, Protocol, key_rates
from mlcvqkd.metrics import average_precision, evaluate, prf, roc_curve
from mlcvqkd.statespace import NAMED_RULES, build_scheme, quadrant_flags

SCHEME = build_scheme("8psk", 2.0)
POINTS = np.vstack([SCHEME.points, 0.5 * SCHEME.points + 0.1])  # (16, 2)
FEATURES = extract_batch(POINTS, SCHEME.points)  # (16, 8)
FLAGS = quadrant_flags(POINTS)  # (16, 4)
CLF = train(FEATURES, FLAGS, QmlcParams(k=3))
SCORES = posterior_ratios(CLF, FEATURES)
PREDICTED = SCORES > 1.0
DOC = CLF.to_json_dict()

# every public array parameter: a call taking them by name, and a valid value for each
CASES = {
    "extract_batch": (extract_batch, {"points": POINTS, "refs": SCHEME.points}),
    "resolve_threshold": (lambda features: resolve_threshold(features, quantile=0.5), {"features": FEATURES}),
    "filter_features": (lambda features: filter_features(features, 1.0), {"features": FEATURES}),
    "transmit_batch": (
        lambda points: transmit_batch(points, ChannelParams(10.0, phase_drift=0.7), RandomSource(0)),
        {"points": POINTS},
    ),
    "quadrant_flags": (quadrant_flags, {"points": POINTS}),
    "ModulationScheme.decode": (SCHEME.decode, {"flags": FLAGS}),
    "train": (lambda features, label_flags: train(features, label_flags, QmlcParams(k=3)),
              {"features": FEATURES, "label_flags": FLAGS}),
    "posterior_ratios": (lambda queries: posterior_ratios(CLF, queries), {"queries": FEATURES}),
    "predict_batch": (lambda queries: predict_batch(CLF, queries), {"queries": FEATURES}),
    "prf": (prf, {"pred_flags": PREDICTED, "true_flags": FLAGS}),
    "average_precision": (average_precision, {"scores": SCORES, "true_flags": FLAGS}),
    "roc_curve": (roc_curve, {"scores": SCORES[:, 0], "truth": FLAGS[:, 0]}),
    "evaluate": (evaluate, {"scores": SCORES, "pred_flags": PREDICTED, "true_flags": FLAGS,
                            "erased": SCHEME.decode(PREDICTED) == 0}),
    "key_rates": (lambda vms, transmittances: key_rates(KeyRateParams(vm=1.0, transmittance=0.5), vms,
                                                       transmittances),
                  {"vms": np.array([0.5, 1.0, 4.0]), "transmittances": np.array([0.9, 0.5, 0.1])}),
    "TrainedClassifier.from_json_dict": (
        lambda **fields: TrainedClassifier.from_json_dict({**DOC, **fields}),
        {name: np.array(DOC[name]) for name in ("features", "label_flags", "prior_pos", "counts_pos", "counts_neg")},
    ),
}

# hostile values of any parameter
POOL = [
    None, True, False, "ab", b"ab", [[1.0], [1.0, 2.0]], np.array([None, 1.0], dtype=object), {},
    math.nan, math.inf, np.array(1.0), np.ones(3), np.ones((2, 2, 2)), np.ones(2, dtype=complex),
    [], np.empty(0), np.empty((0, 2)), np.empty((0, 4)), np.empty((0, 0)), np.ones((3, 5)),
    2**70, [2**70, 1], [[2**70, 1.0]],
    np.full((3, 2), math.inf), np.full((3, 4), -math.inf), np.full((3, 2), math.nan),
    np.full((3, 2), 1.7e308), np.full((3, 4), -1e200),
]


def _with_first(valid, value):
    damaged = valid.astype(object if isinstance(value, int) else float)
    damaged.flat[0] = value
    return damaged


# hostile values made from a parameter's valid value
DAMAGE = [
    lambda v: _with_first(v, math.nan),
    lambda v: _with_first(v, math.inf),
    lambda v: _with_first(v, -math.inf),
    lambda v: _with_first(v, 2**70),
    lambda v: _with_first(v, 1e200),  # finite, but its square overflows
    lambda v: np.full(v.shape, 1.7e308),  # finite, but sums of its entries overflow
    lambda v: v[..., :-1],  # one column (or element) short
    lambda v: np.concatenate([v, v[..., :1]], axis=-1),  # one too many
    lambda v: v[..., None],  # an extra axis
    lambda v: v[0],  # an axis fewer
    lambda v: v[:0],  # empty
    lambda v: v.astype(object),
    lambda v: v.tolist(),
]


def argument(valid):
    return st.one_of(st.just(valid), st.sampled_from(POOL), st.sampled_from(DAMAGE).map(lambda damage: damage(valid)))


@pytest.mark.parametrize("call, valid", CASES.values(), ids=list(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_arrays_return_or_raise_a_package_error(call, valid, data):
    args = {name: data.draw(argument(value), label=name) for name, value in valid.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(**args)
        except MlcvqkdError:
            pass


# each of these once escaped as a raw ValueError, AxisError or IndexError, or
# overflowed with a RuntimeWarning
FORMER_ESCAPES = {
    "extract_batch str points": lambda: extract_batch("ab", SCHEME.points),
    "extract_batch str refs": lambda: extract_batch(POINTS, "x"),
    "filter_features 1-d": lambda: filter_features(np.ones(3), 1.0),
    "resolve_threshold 1-d": lambda: resolve_threshold(np.ones(3), quantile=0.5),
    "filter_features str": lambda: filter_features("ab", 1.0),
    "transmit_batch str": lambda: transmit_batch("ab", ChannelParams(10.0), RandomSource(0)),
    "quadrant_flags 1-d": lambda: quadrant_flags(np.ones(3)),
    "decode 5 flags": lambda: SCHEME.decode(np.ones((2, 5))),
    "predict_batch 1-d": lambda: predict_batch(CLF, np.ones(8)),
    "roc_curve lengths": lambda: roc_curve(np.ones(3), np.ones(2)),
    "roc_curve 2-d": lambda: roc_curve(np.ones((2, 2)), np.ones((2, 2))),
    "average_precision str": lambda: average_precision("ab", FLAGS),
    "extract_batch huge point": lambda: extract_batch([[1e200, 0.0]], SCHEME.points),
    "transmit_batch huge point": lambda: transmit_batch([[1.7e308, 1.7e308]], ChannelParams(10.0, phase_drift=0.7),
                                                        RandomSource(0)),
    "from_json_dict huge counts": lambda: TrainedClassifier.from_json_dict(
        {**DOC, "counts_pos": np.full_like(DOC["counts_pos"], 1e308).tolist()}),
}


@pytest.mark.parametrize("call", FORMER_ESCAPES.values(), ids=list(FORMER_ESCAPES))
def test_former_escapes_are_input_errors(call):
    with pytest.raises(InvalidInputError):
        call()


class TestArray:
    def test_a_float64_array_is_returned_uncopied(self):
        assert array("x", FEATURES, (None, None)) is FEATURES

    def test_converts_to_the_dtype(self):
        assert array("x", [[1, 2]], (1, 2)).dtype == np.float64
        assert array("x", [[0.0, 2.0]], (None, 2), bool).tolist() == [[False, True]]

    @pytest.mark.parametrize("value, dtype, got", [
        ([[1.0], [1.0, 2.0]], float, "a ragged nesting"),
        ([True, False], float, "bool of shape (2,)"),
        (["1"], float, "<U1 of shape (1,)"),
        ([2**70], bool, "object of shape (1,)"),
        ([[1.0, 2.0]], float, "float64 of shape (1, 2)"),
        ([1.0, 2.0, 3.0], bool, "float64 of shape (3,)"),
    ])
    def test_names_the_argument_and_the_wanted_shape(self, value, dtype, got):
        with pytest.raises(InvalidInputError) as caught:
            array("x", value, (2,), dtype)
        kind = "flag" if dtype is bool else "real"
        assert str(caught.value) == f"x must have shape (2,) and {kind} values, got {got}"

    def test_none_leaves_an_axis_free(self):
        assert array("x", np.ones((0, 3)), (None, 3)).shape == (0, 3)
        with pytest.raises(InvalidInputError, match=r"x must have shape \(any, 2\)"):
            array("x", np.ones((4, 3)), (None, 2))


FINITE = KeyRateParams(vm=1.0, transmittance=0.5, n=10**6, big_n=10**7)
SMALL_SESSION = mlcvqkd.SessionConfig(training_size=300, testing_size=300, prediction_block=300)

# a valid value of every parameter of every public function, by parameter name
VALID_CALLS = {
    mlcvqkd.average_precision: {"scores": SCORES, "true_flags": FLAGS},
    mlcvqkd.build_scheme: {"kind": "8psk", "modulation_variance": 2.0},
    mlcvqkd.covariance_z: {"protocol": Protocol.EIGHT_STATE, "vm": 1.0},
    mlcvqkd.delta_n: {"params": FINITE},
    mlcvqkd.encode: {"rule": NAMED_RULES["rule2"], "index": 3},
    mlcvqkd.evaluate: CASES["evaluate"][1],
    mlcvqkd.extract_batch: {"points": POINTS, "refs": SCHEME.points},
    mlcvqkd.filter_features: {"features": FEATURES, "threshold": 1.0},
    mlcvqkd.holevo_chi_be: {"params": FINITE},
    mlcvqkd.intercept_resend_demo: {},
    mlcvqkd.key_rates: {"params": FINITE, **CASES["key_rates"][1]},
    mlcvqkd.mutual_information: {"params": FINITE},
    mlcvqkd.optimize_vm: {"distances_km": [20.0], "params": FINITE, "v_lo": 0.1, "v_hi": 2.0},
    mlcvqkd.predict_batch: {"clf": CLF, "queries": FEATURES},
    mlcvqkd.prf: CASES["prf"][1],
    mlcvqkd.quadrant_flags: {"points": POINTS},
    mlcvqkd.rate_asymptotic: {"params": FINITE},
    mlcvqkd.rate_finite: {"params": FINITE},
    mlcvqkd.roc_curve: CASES["roc_curve"][1],
    mlcvqkd.state_learning: {"config": SMALL_SESSION, "rng": RandomSource(0)},
    mlcvqkd.state_prediction: {"clf": CLF, "config": SMALL_SESSION, "rng": RandomSource(0)},
    mlcvqkd.train: {**CASES["train"][1], "params": QmlcParams(k=3)},
    mlcvqkd.transmit_batch: {"points": POINTS, "params": ChannelParams(10.0), "rng": RandomSource(0)},
    mlcvqkd.transmittance_from_distance: {"distance_km": 20.0, "loss_db_per_km": 0.2},
    posterior_ratios: {"clf": CLF, "queries": FEATURES},
    protocol.format_attack_table: {"scenarios": mlcvqkd.intercept_resend_demo()},
}

NONE_CALLS = [(fn, name) for fn, valid in VALID_CALLS.items() for name in valid]


def test_every_public_function_has_valid_values_for_each_parameter():
    public = {getattr(mlcvqkd, name) for name in mlcvqkd.__all__ if inspect.isfunction(getattr(mlcvqkd, name))}
    assert public - set(VALID_CALLS) == set()
    for fn, valid in VALID_CALLS.items():
        assert list(valid) == list(inspect.signature(fn).parameters), fn.__name__


@pytest.mark.parametrize("fn, valid", VALID_CALLS.items(), ids=[fn.__name__ for fn in VALID_CALLS])
def test_valid_values_are_accepted(fn, valid):
    fn(**valid)


@pytest.mark.parametrize("fn, name", NONE_CALLS, ids=[f"{fn.__name__}-{name}" for fn, name in NONE_CALLS])
def test_none_in_any_parameter_returns_or_raises_a_package_error(fn, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            fn(**{**VALID_CALLS[fn], name: None})
        except MlcvqkdError:
            pass
