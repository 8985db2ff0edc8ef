"""PSK constellations as arrays, quadrant labels, encoding rules.

A modulated coherent state is represented by its phase-space point (q, p)
in shot-noise units. A scheme holds its constellation in one form: the
(n_states, 2) array `points`, with state k at row k - 1 on a ring of
radius sqrt(V_m / 2), and the (n_states, 4) array `label_flags` of the
quadrant labels L1..L4 whose closure contains each point. Bit encoding is
a per-state lookup table, public or kept private by Alice and Bob, that
gives each state its own bit string; the strings may differ in length.

A scheme's decode table maps a flag row, read as the binary number
flags @ (1, 2, 4, 8), to the index of the state carrying exactly those
labels, or to 0 for an erasure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import InvalidParameterError, real_number

N_LABELS = 4
_FLAG_WEIGHTS = 1 << np.arange(N_LABELS)  # (1, 2, 4, 8)


class ModulationKind(str, Enum):
    QPSK = "qpsk"
    PSK8 = "8psk"


def quadrant_flags(points: np.ndarray) -> np.ndarray:
    """(n, 4) flags of the quadrants L1..L4 whose closure holds each row of
    an (n, 2) array of points.

    Interior points get the single label of their quadrant, points on an
    axis get the two labels of the adjacent quadrants, and the origin gets
    all four.
    """
    points = np.asarray(points, dtype=float)
    q_pos, p_pos = points[:, 0] >= 0, points[:, 1] >= 0
    q_neg, p_neg = points[:, 0] <= 0, points[:, 1] <= 0
    return np.column_stack([q_pos & p_pos, q_neg & p_pos, q_neg & p_neg, q_pos & p_neg])


# Exact (cos, sin) rows for angles k*pi/4, k = 1..8, so axis states land
# exactly on the axes and carry the labels of both adjacent quadrants.
_H = math.sqrt(2.0) / 2.0
_OCTANT_COS_SIN = np.array([(_H, _H), (0.0, 1.0), (-_H, _H), (-1.0, 0.0),
                            (-_H, -_H), (0.0, -1.0), (_H, -_H), (1.0, 0.0)])


@dataclass(frozen=True)
class ModulationScheme:
    """A PSK constellation of modulation variance V_m.

    points is the read-only (n_states, 2) array of the states' phase-space
    points and label_flags the (n_states, 4) array of their quadrant
    labels; state k is row k - 1 of both. decode inverts label_flags.
    """

    kind: ModulationKind
    modulation_variance: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ModulationKind(self.kind))
        except ValueError:
            raise InvalidParameterError(f"unknown modulation kind {self.kind!r}") from None
        vm = real_number("modulation_variance", self.modulation_variance)
        if not (vm > 0 and math.isfinite(vm)):
            raise InvalidParameterError(f"modulation variance must be finite and positive, got {vm}")
        object.__setattr__(self, "modulation_variance", vm)
        octants = _OCTANT_COS_SIN[::2] if self.kind is ModulationKind.QPSK else _OCTANT_COS_SIN
        points = math.sqrt(vm / 2.0) * octants
        flags = quadrant_flags(points)
        table = np.zeros(2**N_LABELS, dtype=int)
        table[flags @ _FLAG_WEIGHTS] = np.arange(1, len(points) + 1)
        points.flags.writeable = flags.flags.writeable = table.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "label_flags", flags)
        object.__setattr__(self, "_decode_table", table)

    @property
    def n_states(self) -> int:
        return len(self.points)

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
    return ModulationScheme(kind=kind, modulation_variance=modulation_variance)


@dataclass(frozen=True)
class EncodingRule:
    """A state-index -> bit-string lookup. Strings may differ in length, but
    no two states share one, so two symbols' bits agree exactly when their
    states do."""

    rule_id: str
    mapping: Mapping[int, str] = field(hash=False)

    def __post_init__(self):
        owner = {}
        for k, bits in self.mapping.items():
            if not bits or any(c not in "01" for c in bits):
                raise InvalidParameterError(f"rule {self.rule_id}: state {k} maps to non-bit-string {bits!r}")
            if owner.setdefault(bits, k) != k:
                raise InvalidParameterError(
                    f"rule {self.rule_id}: states {owner[bits]} and {k} both map to {bits!r}")


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
    mapping={1: "000", 2: "001", 3: "010", 4: "011", 5: "100", 6: "101", 7: "110", 8: "111"},
)

RULE_PRIVATE_LEARNING_1 = EncodingRule(
    rule_id="rule2",
    mapping={1: "111", 2: "110", 3: "101", 4: "100", 5: "011", 6: "010", 7: "001", 8: "000"},
)

RULE_PRIVATE_LEARNING_2 = EncodingRule(
    rule_id="rule3",
    mapping={1: "00", 2: "10101", 3: "11", 4: "1", 5: "1001", 6: "01", 7: "1011", 8: "101"},
)

NAMED_RULES = {
    "rule1": RULE_PUBLIC_8PSK,
    "rule2": RULE_PRIVATE_LEARNING_1,
    "rule3": RULE_PRIVATE_LEARNING_2,
}
