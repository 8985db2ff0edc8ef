"""End-to-end protocol pipeline: state learning, state prediction, attack demo.

State learning generates labeled constellation states, transmits them,
extracts and filters distance features, trains the classifier on one
split and evaluates it on the other, and accepts the classifier only if
its average AUC clears the configured threshold. State prediction then
generates key material: Alice encodes her randomly chosen states under
the active (possibly private) encoding rule while Bob classifies received
points back to states and decodes with the same rule; erased predictions
are dropped from both sides. The intercept-resend demo replays the
attack in which Eve measures and resends perfectly but decodes under the
rule she believes is active.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import classifier as qmlc
from .channel import ChannelParams, RandomSource, transmit_batch
from .errors import InvalidInputError, InvalidParameterError, LearningRejectedError, real_number
from .features import extract_batch, filter_features, resolve_threshold
from .metrics import EvaluationReport, evaluate
from .statespace import (
    NAMED_RULES,
    EncodingRule,
    ModulationKind,
    ModulationScheme,
    build_scheme,
    encode,
)

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
    InvalidParameterError.
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
        try:
            object.__setattr__(self, "kind", ModulationKind(self.kind))
        except ValueError:
            raise InvalidParameterError(f"unknown modulation kind {self.kind!r}") from None
        object.__setattr__(self, "vm", real_number("vm", self.vm))
        object.__setattr__(self, "auc_threshold", real_number("auc_threshold", self.auc_threshold))
        for name in ("filter_quantile", "filter_threshold"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if not 0 < self.vm < math.inf:
            raise InvalidParameterError(f"modulation variance must be finite and positive, got {self.vm}")
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

    @property
    def scheme(self) -> ModulationScheme:
        return build_scheme(self.kind, self.vm)

    @property
    def rule(self) -> EncodingRule:
        return NAMED_RULES[self.rule_id]


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


def _generate_population(scheme: ModulationScheme, size: int, channel: ChannelParams,
                         rng_states: RandomSource, rng_channel: RandomSource):
    """(1-based state indices, label flags, sent points, received points)
    of uniformly drawn states."""
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

    rng_states, rng_channel = rng.split(2)
    indices, flags, _, received = _generate_population(
        scheme, generated, config.channel, rng_states, rng_channel
    )
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

    Alice's and Bob's keys are stored as per-symbol bit strings; with a
    variable-length rule a misclassified symbol may decode to a different
    length, so stream agreement is defined symbol-wise. After erasure
    removal both sides hold the same number of symbols.
    """

    n_sent: int
    n_erased: int
    sent_states: np.ndarray
    predicted_states: np.ndarray
    alice_symbols: list[str]
    bob_symbols: list[str]
    agreement_rate: float
    rule_id: str

    @property
    def alice_key(self) -> str:
        return "".join(self.alice_symbols)

    @property
    def bob_key(self) -> str:
        return "".join(self.bob_symbols)

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
    scheme = config.scheme
    rule = config.rule

    rng_states, rng_channel = rng.split(2)
    indices, _, _, received = _generate_population(
        scheme, config.prediction_block, config.channel, rng_states, rng_channel
    )
    features = extract_batch(received, scheme.points)
    _, pred_flags = qmlc.predict_batch(clf, features)
    predicted = scheme.decode(pred_flags)  # 0 marks an erasure

    kept = predicted > 0
    alice_symbols = [encode(rule, int(k)) for k in indices[kept]]
    bob_symbols = [encode(rule, int(k)) for k in predicted[kept]]
    matches = sum(a == b for a, b in zip(alice_symbols, bob_symbols))
    agreement = matches / len(alice_symbols) if alice_symbols else 1.0

    return SessionTranscript(
        n_sent=int(len(indices)),
        n_erased=int((~kept).sum()),
        sent_states=indices,
        predicted_states=predicted,
        alice_symbols=alice_symbols,
        bob_symbols=bob_symbols,
        agreement_rate=float(agreement),
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
