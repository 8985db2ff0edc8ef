"""End-to-end protocol pipeline: state learning, state prediction, attack demo.

State learning generates labeled constellation states, transmits them,
extracts and filters distance features, trains the classifier on one
split and evaluates it on the other, and accepts the classifier only if
its average AUC clears the configured threshold. State prediction then
generates key material: Bob classifies received points back to states,
erased predictions are dropped from both sides, and Alice's sent states
and Bob's decoded states become bits under the active (possibly private)
encoding rule, looked up once per state. The intercept-resend demo
replays the attack in which Eve measures and resends perfectly but
decodes under the rule she believes is active.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import classifier as qmlc
from .channel import ChannelParams, RandomSource, transmit_batch
from .errors import InvalidParameterError, LearningRejectedError, real_number
from .features import extract_batch, filter_features, resolve_threshold
from .metrics import EvaluationReport, evaluate
from .statespace import NAMED_RULES, ModulationKind, ModulationScheme, build_scheme, encode

# the most rows an array can hold: the largest numpy index
MAX_SAMPLES = int(np.iinfo(np.intp).max)


def _generated_size(training_size: int, testing_size: int) -> int:
    """Samples state learning draws: the training and testing sets plus a
    5 percent margin and 200 more to survive filtering."""
    return math.ceil((training_size + testing_size) * 1.05) + 200


@dataclass(frozen=True)
class SessionConfig:
    """Configuration of one learning-plus-prediction session.

    The float fields (and the filter fields when not None) must be real
    numbers and are stored as Python floats; a bool or a string is an
    InvalidParameterError, as is a channel, qmlc or rule_id that is not a
    ChannelParams, a QmlcParams or a str. The session's ModulationScheme
    (``scheme``, which also checks kind and vm) and EncodingRule (``rule``)
    are built once, when the config is made, and read as attributes; they
    are not fields, so they take no part in ==, repr or dataclasses.asdict.
    """

    kind: ModulationKind = ModulationKind.PSK8
    vm: float = 50.0
    channel: ChannelParams = field(default_factory=lambda: ChannelParams(distance_km=20.0, excess_noise=0.01))
    qmlc: qmlc.QmlcParams = field(default_factory=lambda: qmlc.QmlcParams(k=9))
    training_size: int = 5000
    testing_size: int = 10_000
    prediction_block: int = 10_000
    rule_id: str = "rule2"
    auc_threshold: float = 0.9
    filter_quantile: float | None = 0.995
    filter_threshold: float | None = None

    def __post_init__(self):
        for name, cls in (("channel", ChannelParams), ("qmlc", qmlc.QmlcParams), ("rule_id", str)):
            if not isinstance(getattr(self, name), cls):
                raise InvalidParameterError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        object.__setattr__(self, "vm", real_number("vm", self.vm))
        object.__setattr__(self, "auc_threshold", real_number("auc_threshold", self.auc_threshold))
        for name in ("filter_quantile", "filter_threshold"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, real_number(name, getattr(self, name)))
        object.__setattr__(self, "scheme", build_scheme(self.kind, self.vm))  # checks the kind and V_m
        object.__setattr__(self, "kind", self.scheme.kind)
        for name in ("training_size", "testing_size", "prediction_block"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            if value > MAX_SAMPLES:
                raise InvalidParameterError(f"{name} must be at most {MAX_SAMPLES}, got {value}")
            object.__setattr__(self, name, int(value))
        if _generated_size(self.training_size, self.testing_size) > MAX_SAMPLES:
            raise InvalidParameterError(
                f"training and testing sizes draw more than {MAX_SAMPLES} samples together"
            )
        if self.training_size <= self.qmlc.k:
            raise InvalidParameterError(
                f"training size {self.training_size} must exceed k={self.qmlc.k}"
            )
        if self.testing_size <= 0 or self.prediction_block <= 0:
            raise InvalidParameterError("testing size and prediction block must be positive")
        if not 0.5 < self.auc_threshold < 1 and self.auc_threshold != 1.0:
            raise InvalidParameterError(
                f"AUC acceptance threshold must be in (0.5, 1], got {self.auc_threshold}"
            )
        if self.rule_id not in NAMED_RULES:
            raise InvalidParameterError(f"unknown encoding rule {self.rule_id!r}")
        object.__setattr__(self, "rule", NAMED_RULES[self.rule_id])


@dataclass
class LearningOutcome:
    """Accepted classifier plus its evaluation and filtering statistics.

    test_received and test_flags are the testing set the report scores:
    the received points and their true label flags, in generation order.
    """

    classifier: qmlc.TrainedClassifier
    report: EvaluationReport
    filter_threshold: float
    n_generated: int
    n_discarded: int
    test_received: np.ndarray
    test_flags: np.ndarray

    @property
    def discard_rate(self) -> float:
        return self.n_discarded / self.n_generated if self.n_generated else 0.0


def _generate_population(scheme: ModulationScheme, size: int, channel: ChannelParams, rng: RandomSource):
    """(1-based state indices, label flags, sent points, received points)
    of uniformly drawn states: the states come from the first of two
    streams split from rng, the channel noise from the second."""
    rng_states, rng_channel = rng.split(2)
    drawn = rng_states.integers(0, scheme.n_states, size)
    sent = scheme.points[drawn]
    received = transmit_batch(sent, channel, rng_channel)
    return drawn + 1, scheme.label_flags[drawn], sent, received


def state_learning(config: SessionConfig, rng: RandomSource) -> LearningOutcome:
    """Train and evaluate a classifier; reject it when its AUC is too low.

    Draws training_size + testing_size samples (plus a 5 percent margin to
    survive filtering), transmits them, extracts features, resolves the
    filter threshold on the whole population, then splits the kept samples
    into the training and testing sets in generation order.
    """
    scheme = config.scheme
    wanted = config.training_size + config.testing_size
    generated = _generated_size(config.training_size, config.testing_size)

    indices, flags, _, received = _generate_population(scheme, generated, config.channel, rng)
    features = extract_batch(received, scheme.points)

    threshold = resolve_threshold(features, config.filter_threshold, config.filter_quantile)
    kept, discarded = filter_features(features, threshold)
    if kept.size < wanted:
        raise InvalidParameterError(
            f"filter kept only {kept.size} of {generated} samples, need {wanted}; raise the threshold"
        )

    train_idx = kept[: config.training_size]
    test_idx = kept[config.training_size: wanted]

    clf = qmlc.train(features[train_idx], flags[train_idx], config.qmlc)
    ratios, pred_flags = qmlc.predict_batch(clf, features[test_idx])
    report = evaluate(ratios, pred_flags, flags[test_idx], scheme.decode(pred_flags) == 0)

    outcome = LearningOutcome(
        classifier=clf,
        report=report,
        filter_threshold=threshold,
        n_generated=generated,
        n_discarded=int(discarded.size),
        test_received=received[test_idx],
        test_flags=flags[test_idx],
    )
    if report.average_auc < config.auc_threshold:
        raise LearningRejectedError(
            f"average AUC {report.average_auc:.4f} below acceptance threshold {config.auc_threshold}",
            report=report,
        )
    return outcome


@dataclass
class SessionTranscript:
    """Record of one state-prediction (key generation) phase.

    Erased symbols are dropped from both sides, so Alice's and Bob's keys
    concatenate the bits of the same number of symbols. With a
    variable-length rule a misclassified symbol may carry bits of another
    length, so agreement is counted on symbols: since no two states share
    bits, the share of kept symbols whose decoded state is the sent one.
    """

    n_sent: int
    n_erased: int
    sent_states: np.ndarray
    predicted_states: np.ndarray
    alice_key: str
    bob_key: str
    agreement_rate: float
    rule_id: str

    @property
    def erasure_rate(self) -> float:
        return self.n_erased / self.n_sent if self.n_sent else 0.0

    def to_json_dict(self) -> dict:
        return {
            "n_sent": self.n_sent,
            "n_erased": self.n_erased,
            "erasure_rate": self.erasure_rate,
            "rule_id": self.rule_id,
            "agreement_rate": self.agreement_rate,
            "sent_states": self.sent_states.tolist(),
            "predicted_states": self.predicted_states.tolist(),
            "alice_key": self.alice_key,
            "bob_key": self.bob_key,
        }


def state_prediction(clf: qmlc.TrainedClassifier, config: SessionConfig,
                     rng: RandomSource) -> SessionTranscript:
    """Generate key material with an accepted classifier.

    Error correction, parameter estimation, and privacy amplification are
    not simulated bit-level; their cost enters the key rate through beta
    and Delta(n).
    """
    scheme, rule = config.scheme, config.rule
    indices, _, _, received = _generate_population(scheme, config.prediction_block, config.channel, rng)
    features = extract_batch(received, scheme.points)
    _, pred_flags = qmlc.predict_batch(clf, features)
    predicted = scheme.decode(pred_flags)  # 0 marks an erasure

    kept = predicted > 0
    sent, decoded = indices[kept], predicted[kept]
    bits = [""] + [encode(rule, k) for k in range(1, scheme.n_states + 1)]  # state k's bits at [k]

    return SessionTranscript(
        n_sent=int(len(indices)),
        n_erased=int((~kept).sum()),
        sent_states=indices,
        predicted_states=predicted,
        alice_key="".join([bits[k] for k in sent.tolist()]),
        bob_key="".join([bits[k] for k in decoded.tolist()]),
        agreement_rate=int(np.count_nonzero(sent == decoded)) / sent.size if sent.size else 1.0,
        rule_id=rule.rule_id,
    )


@dataclass(frozen=True)
class AttackScenario:
    """One intercept-resend scenario: who decodes with which rule."""

    name: str
    active_rule: str
    eve_rule: str
    alice: tuple[str, ...]
    eve: tuple[str, ...]
    bob: tuple[str, ...]


DEMO_SENT_STATES = (4, 7, 2)


def intercept_resend_demo() -> list[AttackScenario]:
    """Replay the intercept-resend attack under three encoding regimes.

    Eve intercepts every state, measures it perfectly, and resends it
    without noise, so Bob's classification always matches Alice's choice;
    the three parties differ only in the rule they decode with. With the
    fixed public rule Eve reads the key; with a private rule she decodes
    garbage; after the private rule leaks, one refresh restores secrecy.
    """
    scenarios = [
        ("fixed public rule", "rule1", "rule1"),
        ("private rule after learning 1", "rule2", "rule1"),
        ("private rule after learning 2 (rule 2 leaked)", "rule3", "rule2"),
    ]
    out = []
    for name, active_id, eve_id in scenarios:
        active, eve_rule = NAMED_RULES[active_id], NAMED_RULES[eve_id]
        alice = tuple(encode(active, k) for k in DEMO_SENT_STATES)
        eve = tuple(encode(eve_rule, k) for k in DEMO_SENT_STATES)
        bob = tuple(encode(active, k) for k in DEMO_SENT_STATES)
        out.append(AttackScenario(
            name=name, active_rule=active_id, eve_rule=eve_id,
            alice=alice, eve=eve, bob=bob,
        ))
    return out


def format_attack_table(scenarios: list[AttackScenario]) -> str:
    """Text table of the demo: one row per scenario, three strings per party."""
    header_states = "  ".join(f"a{k}" for k in DEMO_SENT_STATES)
    lines = [
        f"{'scenario':<48}  {'Alice':<17}  {'Eve':<17}  {'Bob':<17}",
        f"{'':<48}  {header_states:<17}  {header_states:<17}  {header_states:<17}",
    ]
    for sc in scenarios:
        lines.append(
            f"{sc.name:<48}  {' '.join(sc.alice):<17}  {' '.join(sc.eve):<17}  {' '.join(sc.bob):<17}"
        )
    return "\n".join(lines)
