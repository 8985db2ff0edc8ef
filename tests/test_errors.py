"""errors.array is the one rule for array arguments: every public function
taking an array returns or raises an MlcvqkdError, whatever it is given,
and what it returns is finite. Every public function, and the constructor
and methods of every public class, also returns or raises one when given
any hostile value in place of any argument."""

import dataclasses
import inspect
import math
import warnings
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlcvqkd
from mlcvqkd import protocol
from mlcvqkd.channel import ChannelParams, RandomSource, transmit_batch
from mlcvqkd.classifier import QmlcParams, TrainedClassifier, posterior_ratios, predict_batch, train
from mlcvqkd.errors import InvalidInputError, InvalidParameterError, MlcvqkdError, array
from mlcvqkd.features import extract_batch, filter_features, resolve_threshold
from mlcvqkd.keyrate import KeyRateParams, Protocol, RateResult, key_rates
from mlcvqkd.metrics import EvaluationReport, average_precision, evaluate, prf, roc_curve
from mlcvqkd.protocol import SessionConfig, SessionTranscript
from mlcvqkd.statespace import NAMED_RULES, EncodingRule, ModulationScheme, build_scheme, quadrant_flags

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
    np.float32(0.5), np.int64(-3), np.uint8(3), np.bool_(True), np.complex128(1j),
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


def non_finite(value, path="result"):
    """The paths of the non-finite floats in a result: a float or a numpy
    array, or a tuple, list or dataclass holding them."""
    if isinstance(value, (float, np.floating)):
        return set() if math.isfinite(value) else {path}
    if isinstance(value, np.ndarray):
        return set() if value.dtype.kind not in "fc" or np.isfinite(value).all() else {path}
    if isinstance(value, (tuple, list)):
        return set().union(*(non_finite(v, f"{path}[{i}]") for i, v in enumerate(value)))
    if dataclasses.is_dataclass(value):
        return set().union(*(non_finite(getattr(value, f.name), f"{path}.{f.name}")
                             for f in dataclasses.fields(value)))
    return set()


def undefined_aucs(name, args):
    """The paths of the NaN AUCs that roc_curve and evaluate document for a
    label whose truth is single-class."""
    if name == "roc_curve":
        truth = array("truth", args["truth"], (None,), bool)
        return {"result[1]"} if truth.all() or not truth.any() else set()
    if name == "evaluate":
        truths = array("truths", args["true_flags"], (None, None), bool)
        single = truths.all(axis=0) | ~truths.any(axis=0)
        return {f"result.per_label_auc[{j}]" for j in np.flatnonzero(single)}
    return set()


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_arrays_return_or_raise_a_package_error(name, data):
    call, valid = CASES[name]
    args = {param: data.draw(argument(value), label=param) for param, value in valid.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = call(**args)
        except MlcvqkdError:
            return
    assert non_finite(result) <= undefined_aucs(name, args)


# each of these once escaped as a raw ValueError, AxisError, IndexError,
# TypeError, AttributeError or OverflowError, or overflowed with a RuntimeWarning
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
    "TrainedClassifier 1-d counts": lambda: TrainedClassifier(CLF.params, FEATURES, FLAGS, CLF.prior_pos,
                                                              np.ones(3), np.ones(3)),
    "TrainedClassifier str counts": lambda: TrainedClassifier(CLF.params, FEATURES, FLAGS, CLF.prior_pos,
                                                              CLF.counts_pos, "ab"),
    # a count numpy cannot take; one it can take would spawn that many streams
    "split past numpy's largest count": lambda: RandomSource(1).split(2**70),
    "TrainedClassifier None params": lambda: TrainedClassifier(None, FEATURES, FLAGS, CLF.prior_pos, CLF.counts_pos,
                                                               CLF.counts_neg),
    "RateResult str key rate": lambda: RateResult(Protocol.GAUSSIAN, "x", 1.0, 1.0),
}
# the former escapes that are a bad parameter rather than bad input data
PARAMETER_ESCAPES = {"split past numpy's largest count", "TrainedClassifier None params", "RateResult str key rate"}


@pytest.mark.parametrize("name", FORMER_ESCAPES)
def test_former_escapes_are_input_errors(name):
    # an InvalidParameterError for the escapes named in PARAMETER_ESCAPES
    with pytest.raises(InvalidParameterError if name in PARAMETER_ESCAPES else InvalidInputError):
        FORMER_ESCAPES[name]()


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

ARGUMENTS = [(fn, name) for fn, valid in VALID_CALLS.items() for name in valid]


def test_every_public_function_has_valid_values_for_each_parameter():
    public = {getattr(mlcvqkd, name) for name in mlcvqkd.__all__ if inspect.isfunction(getattr(mlcvqkd, name))}
    assert public - set(VALID_CALLS) == set()
    for fn, valid in VALID_CALLS.items():
        assert list(valid) == list(inspect.signature(fn).parameters), fn.__name__


@pytest.mark.parametrize("fn, valid", VALID_CALLS.items(), ids=[fn.__name__ for fn in VALID_CALLS])
def test_valid_values_are_accepted(fn, valid):
    fn(**valid)


@pytest.mark.parametrize("fn, name", ARGUMENTS, ids=[f"{fn.__name__}-{name}" for fn, name in ARGUMENTS])
def test_hostile_values_in_any_parameter_return_or_raise_a_package_error(fn, name):
    escapes = []
    for value in POOL:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fn(**{**VALID_CALLS[fn], name: value})
            except MlcvqkdError:
                pass
            except Exception as exc:  # a raw exception, or a RuntimeWarning made an error
                escapes.append(f"{value!r}: {exc!r}")
    assert escapes == []


def field_values(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


TRANSCRIPT = SessionTranscript(n_sent=3, n_erased=1, sent_states=np.array([4, 7, 2]),
                               predicted_states=np.array([4, 0, 2]), alice_key="100110", bob_key="100110",
                               agreement_rate=1.0, rule_id="rule2")

# a valid value of every parameter of every public class's constructor and of
# its public methods that take arguments, by parameter name; the exceptions
# and enums of mlcvqkd.__all__ are left out: an exception takes any message,
# and an enum's constructor is the lookup that errors.member turns into an
# InvalidParameterError
CLASS_CALLS = {
    "ChannelParams": (ChannelParams, field_values(ChannelParams(10.0, excess_noise=0.01, phase_drift=0.7))),
    "EncodingRule": (EncodingRule, {"rule_id": "r", "mapping": {1: "0", 2: "10"}}),
    "EvaluationReport": (EvaluationReport, field_values(evaluate(**CASES["evaluate"][1]))),
    "KeyRateParams": (KeyRateParams, field_values(FINITE)),
    "ModulationScheme": (ModulationScheme, {"kind": "8psk", "modulation_variance": 2.0}),
    "ModulationScheme.decode": (SCHEME.decode, {"flags": FLAGS}),
    "QmlcParams": (QmlcParams, {"k": 3, "s": 1.0, "t": 1.0}),
    "RandomSource": (RandomSource, {"seed": 1}),
    "RandomSource.split": (RandomSource(1).split, {"n": 2}),
    "RateResult": (RateResult, {"protocol": Protocol.GAUSSIAN, "key_rate": 0.1, "mutual_information": 1.0,
                                "holevo_term": 0.9, "delta_n": 0.01}),
    "SessionConfig": (SessionConfig, field_values(SMALL_SESSION)),
    "SessionTranscript": (SessionTranscript, field_values(TRANSCRIPT)),
    "TrainedClassifier": (TrainedClassifier, {"params": CLF.params, "features": FEATURES, "label_flags": FLAGS,
                                              "prior_pos": CLF.prior_pos, "counts_pos": CLF.counts_pos,
                                              "counts_neg": CLF.counts_neg}),
    "TrainedClassifier.from_json_dict": (TrainedClassifier.from_json_dict, {"doc": DOC}),
}

CLASS_ARGUMENTS = [(name, param) for name, (_, valid) in CLASS_CALLS.items() for param in valid]


def public_parameters(fn):
    return [name for name in inspect.signature(fn).parameters if not name.startswith("_") and name != "self"]


def test_every_public_class_and_method_has_valid_values_for_each_parameter():
    wanted = set()
    for name in mlcvqkd.__all__:
        cls = getattr(mlcvqkd, name)
        if inspect.isclass(cls) and not issubclass(cls, (Exception, Enum)):
            wanted.add(name)
            wanted.update(f"{name}.{attr}" for attr in vars(cls) if not attr.startswith("_")
                          and callable(getattr(cls, attr)) and public_parameters(getattr(cls, attr)))
    assert wanted == set(CLASS_CALLS)
    for name, (call, valid) in CLASS_CALLS.items():
        assert list(valid) == public_parameters(call), name


@pytest.mark.parametrize("name", CLASS_CALLS)
def test_valid_class_values_are_accepted(name):
    call, valid = CLASS_CALLS[name]
    call(**valid)


@pytest.mark.parametrize("name, param", CLASS_ARGUMENTS, ids=[f"{name}-{param}" for name, param in CLASS_ARGUMENTS])
def test_hostile_values_in_any_class_parameter_return_or_raise_a_package_error(name, param):
    call, valid = CLASS_CALLS[name]
    escapes = []
    for value in POOL:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call(**{**valid, param: value})
            except MlcvqkdError:
                pass
            except Exception as exc:  # a raw exception, or a RuntimeWarning made an error
                escapes.append(f"{value!r}: {exc!r}")
    assert escapes == []
