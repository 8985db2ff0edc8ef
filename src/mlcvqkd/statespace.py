"""Phase-space states, PSK constellations, quadrant labels, encoding rules.

A modulated coherent state is represented by its phase-space point (q, p)
in shot-noise units. Constellations place states on a ring of radius
alpha = sqrt(V_m / 2); each state carries the set of quadrant labels
{L1..L4} of the quadrant(s) whose closure contains it. Bit encoding is a
per-state lookup table that may be public or private and may assign bit
strings of different lengths.

Label sets travel as flag rows (L1..L4). A scheme's decode table maps a
flag row, read as the binary number flags @ (1, 2, 4, 8), to the index
of the state carrying exactly those labels, or to 0 for an erasure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import InvalidParameterError

N_LABELS = 4
_FLAG_WEIGHTS = 1 << np.arange(N_LABELS)  # (1, 2, 4, 8)


class ModulationKind(str, Enum):
    QPSK = "qpsk"
    PSK8 = "8psk"


class RuleVisibility(str, Enum):
    PUBLIC = "public"
    PRIVATE = "private"


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) in phase space, shot-noise units."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise InvalidParameterError(f"phase point must be finite, got ({self.q}, {self.p})")


def labels_of(point: PhasePoint) -> frozenset[int]:
    """Quadrant label set of a phase-space point.

    Interior points get the single label of their quadrant, points on an
    axis get the two labels of the adjacent quadrants, and the origin gets
    all four (the closure of every quadrant contains it).
    """
    q, p = point.q, point.p
    if q == 0.0 and p == 0.0:
        return frozenset({1, 2, 3, 4})
    if q == 0.0:
        return frozenset({1, 2}) if p > 0 else frozenset({3, 4})
    if p == 0.0:
        return frozenset({4, 1}) if q > 0 else frozenset({2, 3})
    if q > 0:
        return frozenset({1}) if p > 0 else frozenset({4})
    return frozenset({2}) if p > 0 else frozenset({3})


@dataclass(frozen=True)
class ConstellationState:
    """One constellation state: index k, ring angle, point, label set."""

    index: int
    angle: float
    point: PhasePoint
    labels: frozenset[int]


# Exact (cos, sin) pairs for angles k*pi/4, k = 1..8, so axis states land
# exactly on the axes and labels_of agrees with the stored label sets.
_HALF_SQRT2 = math.sqrt(2.0) / 2.0
_OCTANT_COS_SIN = {
    1: (_HALF_SQRT2, _HALF_SQRT2),
    2: (0.0, 1.0),
    3: (-_HALF_SQRT2, _HALF_SQRT2),
    4: (-1.0, 0.0),
    5: (-_HALF_SQRT2, -_HALF_SQRT2),
    6: (0.0, -1.0),
    7: (_HALF_SQRT2, -_HALF_SQRT2),
    8: (1.0, 0.0),
}


@dataclass(frozen=True)
class ModulationScheme:
    """A PSK constellation with amplitude alpha = sqrt(V_m / 2).

    label_flags is the (n_states, 4) flag matrix of the states' label
    sets, in state order; decode inverts it.
    """

    kind: ModulationKind
    modulation_variance: float
    alpha: float
    states: tuple[ConstellationState, ...]

    def __post_init__(self):
        flags = np.zeros((len(self.states), N_LABELS), dtype=bool)
        for row, s in enumerate(self.states):
            flags[row, [j - 1 for j in s.labels]] = True
        table = np.zeros(2**N_LABELS, dtype=int)
        table[flags @ _FLAG_WEIGHTS] = [s.index for s in self.states]
        flags.flags.writeable = table.flags.writeable = False
        object.__setattr__(self, "label_flags", flags)
        object.__setattr__(self, "_decode_table", table)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state(self, index: int) -> ConstellationState:
        for s in self.states:
            if s.index == index:
                return s
        raise InvalidParameterError(f"no state with index {index} in {self.kind.value}")

    def decode(self, flags: np.ndarray) -> np.ndarray:
        """State index of each (n, 4) flag row, 0 where no state carries it.

        A single label decodes to the interior state of that quadrant and
        an adjacent pair to the shared axis state (8PSK). Every other set
        (empty, non-adjacent pair, three or more labels, any pair for
        QPSK) is an erasure.
        """
        return self._decode_table[np.asarray(flags, dtype=bool) @ _FLAG_WEIGHTS]


def build_scheme(kind: ModulationKind | str, modulation_variance: float) -> ModulationScheme:
    """Build a QPSK or 8PSK constellation for the given modulation variance.

    QPSK places 4 states at angles (2k-1)*pi/4, all in quadrant interiors
    with one label each. 8PSK places 8 states at angles k*pi/4; odd k are
    interior single-label states, even k sit on the axes and carry the two
    labels of the adjacent quadrants.
    """
    kind = ModulationKind(kind)
    if not (modulation_variance > 0 and math.isfinite(modulation_variance)):
        raise InvalidParameterError(f"modulation variance must be positive, got {modulation_variance}")
    alpha = math.sqrt(modulation_variance / 2.0)

    octants = range(1, 9, 2) if kind is ModulationKind.QPSK else range(1, 9)
    states = []
    for k, octant in enumerate(octants, start=1):
        c, s = _OCTANT_COS_SIN[octant]
        point = PhasePoint(alpha * c, alpha * s)
        states.append(
            ConstellationState(
                index=k,
                angle=octant * math.pi / 4.0,
                point=point,
                labels=labels_of(point),
            )
        )
    return ModulationScheme(
        kind=kind,
        modulation_variance=modulation_variance,
        alpha=alpha,
        states=tuple(states),
    )


@dataclass(frozen=True)
class EncodingRule:
    """A state-index -> bit-string lookup. Strings may differ in length."""

    rule_id: str
    visibility: RuleVisibility
    mapping: Mapping[int, str] = field(hash=False)

    def __post_init__(self):
        for k, bits in self.mapping.items():
            if not bits or any(c not in "01" for c in bits):
                raise InvalidParameterError(f"rule {self.rule_id}: state {k} maps to non-bit-string {bits!r}")


def encode(rule: EncodingRule, index: int) -> str:
    """Bits written into a key for state `index`.

    Alice encodes the state she sent and Bob the state he decoded with
    the same lookup; a mismatch between their rules is what produces
    divergent keys.
    """
    try:
        return rule.mapping[index]
    except KeyError:
        raise InvalidParameterError(f"rule {rule.rule_id} has no entry for state index {index}") from None


# The three rules of the changeable-encoding demonstration. Rule 1 is the
# fixed public assignment; rules 2 and 3 are private refreshes, the second
# with deliberately variable length.
RULE_PUBLIC_8PSK = EncodingRule(
    rule_id="rule1",
    visibility=RuleVisibility.PUBLIC,
    mapping={1: "000", 2: "001", 3: "010", 4: "011", 5: "100", 6: "101", 7: "110", 8: "111"},
)

RULE_PRIVATE_LEARNING_1 = EncodingRule(
    rule_id="rule2",
    visibility=RuleVisibility.PRIVATE,
    mapping={1: "111", 2: "110", 3: "101", 4: "100", 5: "011", 6: "010", 7: "001", 8: "000"},
)

RULE_PRIVATE_LEARNING_2 = EncodingRule(
    rule_id="rule3",
    visibility=RuleVisibility.PRIVATE,
    mapping={1: "00", 2: "10101", 3: "11", 4: "1", 5: "1001", 6: "01", 7: "1011", 8: "101"},
)

NAMED_RULES = {
    "rule1": RULE_PUBLIC_8PSK,
    "rule2": RULE_PRIVATE_LEARNING_1,
    "rule3": RULE_PRIVATE_LEARNING_2,
}
