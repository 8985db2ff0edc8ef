"""Stochastic fiber-channel model.

The channel applies a phase rotation, amplitude attenuation sqrt(T), and
additive Gaussian excess noise to each quadrature:

    q' = sqrt(T) * (q cos(phi0) + p sin(phi0)) + eps_q
    p' = sqrt(T) * (p cos(phi0) - q sin(phi0)) + eps_p

with eps_q, eps_p independent draws from N(0, N0 + T*xi). T follows the
fiber-loss law T = 10^(-loss_db_per_km * distance / 10); the default loss
coefficient is 0.2 dB/km. All randomness flows through an explicit
RandomSource so every simulation is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, real_number

DEFAULT_LOSS_DB_PER_KM = 0.2
DEFAULT_SHOT_NOISE = 1.0


def transmittance_from_distance(distance_km: float, loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM) -> float:
    """Power transmittance of `distance_km` of fiber at the given loss; a
    length whose T underflows to 0 is an InvalidParameterError."""
    distance_km = real_number("distance_km", distance_km)
    loss_db_per_km = real_number("loss_db_per_km", loss_db_per_km)
    if not (math.isfinite(distance_km) and math.isfinite(loss_db_per_km)):
        raise InvalidParameterError(
            f"distance and loss must be finite, got {distance_km} km at {loss_db_per_km} dB/km"
        )
    if distance_km < 0 or loss_db_per_km < 0:
        raise InvalidParameterError(
            f"distance and loss must be nonnegative, got {distance_km} km at {loss_db_per_km} dB/km"
        )
    transmittance = 10.0 ** (-loss_db_per_km * distance_km / 10.0)
    if transmittance == 0.0:
        raise InvalidParameterError(
            f"{distance_km} km at {loss_db_per_km} dB/km transmits nothing (T underflows to 0)"
        )
    return transmittance


class RandomSource:
    """Seeded random generator with documented deterministic splitting.

    Wraps numpy's SeedSequence/PCG64. Identical seeds produce identical
    sample streams. `split(n)` spawns n independent child sources via
    SeedSequence.spawn, so a master seed can be divided across pipeline
    stages without any stage's draws perturbing another's; the spawn tree
    is part of numpy's stability guarantee, making the scheme stable
    across runs and processes.
    """

    def __init__(self, seed, _sequence: np.random.SeedSequence | None = None):
        if _sequence is not None:
            self.sequence = _sequence
        else:
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
                raise InvalidParameterError(f"seed must be a nonnegative integer, got {seed!r}")
            self.sequence = np.random.SeedSequence(int(seed))
        self.generator = np.random.Generator(np.random.PCG64(self.sequence))

    def split(self, n: int) -> list["RandomSource"]:
        """n independent child sources, deterministic in the parent seed."""
        children = self.sequence.spawn(n)
        return [RandomSource(seed=None, _sequence=c) for c in children]

    def normal(self, scale: float, size) -> np.ndarray:
        return self.generator.normal(0.0, scale, size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        return self.generator.integers(low, high, size)


@dataclass(frozen=True)
class ChannelParams:
    """Channel configuration.

    Every field must be a finite real number and is stored as a Python
    float; a bool, a string or None is an InvalidParameterError.

    Attributes
    ----------
    distance_km : float
        Fiber length in km; used to derive the transmittance.
    loss_db_per_km : float
        Fiber loss coefficient, default 0.2 dB/km.
    excess_noise : float
        Excess noise xi in shot-noise units, referred to the channel input.
    phase_drift : float
        Fixed phase drift phi0 in radians applied to every symbol.
    shot_noise : float
        Shot-noise variance N0, default 1 (shot-noise-unit normalization).
    transmittance : float
        Derived power transmittance in (0, 1].
    """

    distance_km: float
    excess_noise: float = 0.0
    phase_drift: float = 0.0
    loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM
    shot_noise: float = DEFAULT_SHOT_NOISE

    def __post_init__(self):
        for f in fields(self):
            value = real_number(f"channel {f.name}", getattr(self, f.name))
            if not math.isfinite(value):
                raise InvalidParameterError(f"channel {f.name} must be finite, got {value}")
            object.__setattr__(self, f.name, value)
        if self.excess_noise < 0:
            raise InvalidParameterError(f"excess noise must be nonnegative, got {self.excess_noise}")
        if self.shot_noise <= 0:
            raise InvalidParameterError(f"shot noise must be positive, got {self.shot_noise}")
        # validates distance and loss
        transmittance_from_distance(self.distance_km, self.loss_db_per_km)

    @property
    def transmittance(self) -> float:
        return transmittance_from_distance(self.distance_km, self.loss_db_per_km)

    @property
    def noise_variance(self) -> float:
        """Per-quadrature variance N0 + T*xi of the additive noise."""
        return self.shot_noise + self.transmittance * self.excess_noise


def transmit_batch(points: np.ndarray, params: ChannelParams, rng: RandomSource) -> np.ndarray:
    """Send an (n, 2) array of (q, p) rows through the channel.

    One reproducible noise stream covers the whole batch; output row i is
    the transmitted row i. Returns an (n, 2) array.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.empty((0, 2))
    if points.ndim != 2 or points.shape[1] != 2:
        raise InvalidParameterError(f"expected an (n, 2) array of points, got shape {points.shape}")

    n = points.shape[0]
    q, p = points[:, 0], points[:, 1]

    root_t = math.sqrt(params.transmittance)
    cos_phi, sin_phi = np.cos(params.phase_drift), np.sin(params.phase_drift)
    sigma = math.sqrt(params.noise_variance)

    q_out = root_t * (q * cos_phi + p * sin_phi) + rng.normal(sigma, n)
    p_out = root_t * (p * cos_phi - q * sin_phi) + rng.normal(sigma, n)
    return np.column_stack([q_out, p_out])
