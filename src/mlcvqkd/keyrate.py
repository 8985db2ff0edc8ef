"""Secret key rates, asymptotic and finite-size, for four protocols.

The asymptotic rate under collective attack with heterodyne detection and
reverse reconciliation is K = beta * I(A:B) - chi_BE. The mutual
information uses the Gaussian heterodyne formula

    I(A:B) = log2[(V + chi_tot) / (1 + chi_tot)],    V = V_m + 1,

with channel noise chi_line = 1/T - 1 + xi, detection noise
chi_het = [1 + (1 - eta) + 2 v_el] / eta (referred to Bob's input), and
chi_tot = chi_line + chi_het / T. The Holevo bound chi_BE comes from the
symplectic eigenvalues of the Gaussian covariance matrices before and
after Bob's measurement; discrete modulation enters only through the
Alice-Bob correlation Z, which for the four- and eight-state
constellations is the cyclic series

    Z_P = 2 alpha^2 * sum_k l_{k-1}^{3/2} / l_k^{1/2}   (indices mod P)

over the constellation-symmetrized thermal weights l_k, with
alpha^2 = V_m / 2. Gaussian modulation has Z_G = sqrt(V^2 - 1).

The finite-size rate keeps a fraction n/N of the block and subtracts the
privacy-amplification penalty

    Delta(n) = (2 dim_HB + 3) sqrt(log2(2/eps_bar)/n) + (2/n) log2(1/eps_PA)

with dim_HB = 2. The classification-based protocol replaces beta*I with
beta*Lambda*I (Lambda = classifier efficiency) and chi_BE with a pluggable
eavesdropper term that defaults to 0, reflecting private encoding rules
denying the eavesdropper a decoding; setting it to chi_BE recovers the
traditional rate structure for conservative comparisons.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import transmittance_from_distance
from .errors import InvalidParameterError, NumericalDomainError, real_number

DIM_HB = 2
_LAMBDA_TOLERANCE = 1e-9
_COARSE_POINTS = 32  # optimize_vm's log-spaced grid over [v_lo, v_hi]
_XTOL = 0.01  # optimize_vm's golden-section tolerance on V_m
_GOLDEN_STEPS = 3100  # log(1.8e308 / 5e-324) / log(1 / 0.618): about 3020 steps


class Protocol(str, Enum):
    GAUSSIAN = "gaussian"
    FOUR_STATE = "four-state"
    EIGHT_STATE = "eight-state"
    ML = "ml"


def _checked_vm(value) -> float:
    vm = real_number("vm", value)
    if not 0 < vm < math.inf:
        raise InvalidParameterError(f"modulation variance must be finite and positive, got {vm}")
    return vm


def _checked_transmittance(value) -> float:
    t = real_number("transmittance", value)
    if not 0 < t <= 1:
        raise InvalidParameterError(f"transmittance must be in (0, 1], got {t}")
    return t


def _line_terms(t: float, excess_noise: float, chi_het: float) -> tuple[float, float]:
    """chi_line and chi_tot at transmittance t."""
    chi_line = 1.0 / t - 1.0 + excess_noise
    return chi_line, chi_line + chi_het / t


@dataclass(frozen=True)
class KeyRateParams:
    """Every scalar entering the rate formulas.

    The float fields are stored as Python floats, whatever real type was
    given; a bool, a string or None is an InvalidParameterError. The channel
    terms v = V_m + 1, chi_line, chi_het and chi_tot (see the module
    docstring) are computed once, when a point is made, and read as
    attributes; they are not fields, so they take no part in ==, repr or
    dataclasses.asdict. ``at`` makes the same point at another V_m or T
    and checks only what it replaces, which is what a sweep over either
    needs.

    Attributes
    ----------
    vm : float
        Modulation variance V_m > 0; V = V_m + 1.
    transmittance : float
        Channel transmittance T in (0, 1].
    excess_noise : float
        Excess noise xi >= 0, channel input, shot-noise units.
    eta : float
        Heterodyne detector efficiency in (0, 1].
    v_el : float
        Detector electronic noise >= 0.
    beta : float
        Reverse-reconciliation efficiency in (0, 1].
    lam : float
        Classifier efficiency Lambda in (0, 1]; only the ML protocol uses it.
    protocol : Protocol
        Which correlation Z / rate structure to use.
    n, big_n : int or None
        Key-generation length n and block length N for the finite-size
        rate; n <= N. The asymptotic rate ignores them.
    eps_bar, eps_pa : float
        Smoothing and privacy-amplification failure probabilities in (0, 1).
    ml_eve_term : float
        Pluggable eavesdropper information for the ML protocol (default 0).
    """

    vm: float
    transmittance: float
    excess_noise: float = 0.01
    eta: float = 0.6
    v_el: float = 0.05
    beta: float = 0.98
    lam: float = 0.927
    protocol: Protocol = Protocol.EIGHT_STATE
    n: int | None = None
    big_n: int | None = None
    eps_bar: float = 1e-10
    eps_pa: float = 1e-10
    ml_eve_term: float = 0.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "protocol", Protocol(self.protocol))
        except ValueError:
            raise InvalidParameterError(f"unknown protocol {self.protocol!r}") from None
        object.__setattr__(self, "vm", _checked_vm(self.vm))
        object.__setattr__(self, "transmittance", _checked_transmittance(self.transmittance))
        for name in ("excess_noise", "eta", "v_el", "beta", "lam", "eps_bar", "eps_pa", "ml_eve_term"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if not (math.isfinite(self.excess_noise) and math.isfinite(self.v_el)) \
                or self.excess_noise < 0 or self.v_el < 0:
            raise InvalidParameterError(
                f"noise terms must be finite and nonnegative, got excess_noise={self.excess_noise}, "
                f"v_el={self.v_el}")
        for name, value in (("eta", self.eta), ("beta", self.beta), ("lam", self.lam)):
            if not 0 < value <= 1:
                raise InvalidParameterError(f"{name} must be in (0, 1], got {value}")
        for name, value in (("eps_bar", self.eps_bar), ("eps_pa", self.eps_pa)):
            if not 0 < value < 1:
                raise InvalidParameterError(f"{name} must be in (0, 1), got {value}")
        if (self.n is None) != (self.big_n is None):
            raise InvalidParameterError("n and big_n must be given together")
        if self.n is not None:
            for name in ("n", "big_n"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))
            if self.n <= 0 or self.big_n <= 0 or self.n > self.big_n:
                raise InvalidParameterError(f"need 0 < n <= N, got n={self.n}, N={self.big_n}")
        if not math.isfinite(self.ml_eve_term):
            raise InvalidParameterError(f"ml_eve_term must be finite, got {self.ml_eve_term}")
        chi_het = (1.0 + (1.0 - self.eta) + 2.0 * self.v_el) / self.eta
        chi_line, chi_tot = _line_terms(self.transmittance, self.excess_noise, chi_het)
        # plain attributes, not fields, so they are written past the frozen __setattr__
        vars(self).update(v=self.vm + 1.0, chi_line=chi_line, chi_het=chi_het, chi_tot=chi_tot)

    def at(self, *, vm: float | None = None, transmittance: float | None = None) -> "KeyRateParams":
        """This point with vm and/or transmittance replaced (None keeps a field).

        The copy equals dataclasses.replace(self, vm=..., transmittance=...)
        in every field and channel term, and a bad value raises the
        constructor's InvalidParameterError, but only the replaced fields are
        checked again and only the terms that depend on them recomputed.
        """
        fields = vars(self).copy()
        if vm is not None:
            fields["vm"] = vm = _checked_vm(vm)
            fields["v"] = vm + 1.0
        if transmittance is not None:
            fields["transmittance"] = t = _checked_transmittance(transmittance)
            fields["chi_line"], fields["chi_tot"] = _line_terms(t, self.excess_noise, self.chi_het)
        point = object.__new__(type(self))
        object.__setattr__(point, "__dict__", fields)
        return point


@dataclass(frozen=True)
class RateResult:
    """A key rate with its intermediate quantities."""

    protocol: Protocol
    key_rate: float
    mutual_information: float
    holevo_term: float
    delta_n: float | None = None

    def __post_init__(self):
        # finite inputs near the float limits (eta near 0, V_m near 1e308) can still end in inf or NaN
        if not math.isfinite(self.key_rate):
            raise NumericalDomainError("key rate is not finite", key_rate=self.key_rate,
                                       mutual_information=self.mutual_information, holevo_term=self.holevo_term)


def entropy_g(x: float) -> float:
    """G(x) = (x+1) log2(x+1) - x log2(x), continuously extended to G(0) = 0."""
    if x < 0:
        if x > -_LAMBDA_TOLERANCE:
            return 0.0
        raise NumericalDomainError("entropy argument below zero", x=x)
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def mutual_information(params: KeyRateParams) -> float:
    """Heterodyne Gaussian mutual information log2[(V+chi_tot)/(1+chi_tot)]."""
    chi_tot = params.chi_tot
    return math.log2((params.v + chi_tot) / (1.0 + chi_tot))


# below this the closed forms subtract near-equal terms and can return
# negative weights (the smallest true weight falls under the cancellation
# floor), so the equivalent power series takes over
_SERIES_CUTOFF = 2.0


def _weights_series(a2: float, n_states: int) -> list[float]:
    """Weights as Poisson masses summed over residue classes mod n_states.

    l_k = e^-a2 * sum_t a2^(k + n t) / (k + n t)!; every term is positive,
    so small weights keep full relative accuracy where the closed forms
    cancel catastrophically. Sixty terms bound the truncation error below
    1e-60 for a2 <= 2.
    """
    out = [0.0] * n_states
    term = math.exp(-a2)
    out[0] = term
    for t in range(1, 60):
        term *= a2 / t
        out[t % n_states] += term
    return out


def _weights_four(a2: float) -> list[float]:
    if a2 < _SERIES_CUTOFF:
        return _weights_series(a2, 4)
    e = math.exp(-a2)
    return [
        0.5 * e * (math.cosh(a2) + math.cos(a2)),
        0.5 * e * (math.sinh(a2) + math.sin(a2)),
        0.5 * e * (math.cosh(a2) - math.cos(a2)),
        0.5 * e * (math.sinh(a2) - math.sin(a2)),
    ]


def _weights_eight(a2: float) -> list[float]:
    if a2 < _SERIES_CUTOFF:
        return _weights_series(a2, 8)
    e = math.exp(-a2)
    r = a2 / math.sqrt(2.0)
    ch, co, sh, si = math.cosh(a2), math.cos(a2), math.sinh(a2), math.sin(a2)
    chr_, cor, shr, sir = math.cosh(r), math.cos(r), math.sinh(r), math.sin(r)
    root2 = math.sqrt(2.0)
    return [
        0.25 * e * (ch + co + 2.0 * cor * chr_),
        0.25 * e * (sh + si + root2 * (cor * shr + sir * chr_)),
        0.25 * e * (ch - co + 2.0 * sir * shr),
        0.25 * e * (sh - si + root2 * (sir * chr_ - cor * shr)),
        0.25 * e * (ch + co - 2.0 * cor * chr_),
        0.25 * e * (sh + si - root2 * (cor * shr + sir * chr_)),
        0.25 * e * (ch - co - 2.0 * sir * shr),
        0.25 * e * (sh - si - root2 * (sir * chr_ - cor * shr)),
    ]


@functools.lru_cache(maxsize=128)
def covariance_z(protocol: Protocol, vm: float) -> float:
    """Alice-Bob correlation Z for the given protocol at variance vm.

    The last 128 values are cached. The arguments are coerced first, so
    equal keys of other types ("gaussian", a numpy float) return a float.
    """
    try:
        protocol = Protocol(protocol)
    except ValueError:
        raise InvalidParameterError(f"unknown protocol {protocol!r}") from None
    vm = float(vm)
    if not 0 <= vm < math.inf:
        raise InvalidParameterError(f"modulation variance must be finite and nonnegative, got {vm}")
    if vm == 0.0:
        return 0.0
    if protocol is Protocol.GAUSSIAN or protocol is Protocol.ML:
        v = vm + 1.0
        return math.sqrt(v * v - 1.0)
    a2 = vm / 2.0
    try:
        weights = _weights_four(a2) if protocol is Protocol.FOUR_STATE else _weights_eight(a2)
    except OverflowError:  # cosh and sinh of a2 overflow above V_m of about 1420
        raise NumericalDomainError("constellation weights overflow", vm=vm) from None
    if min(weights) <= 0.0:
        raise NumericalDomainError("constellation weight not positive", vm=vm, weights=tuple(weights))
    total = 0.0
    for k, l_k in enumerate(weights):
        l_prev = weights[k - 1]  # k=0 wraps to the last weight
        total += l_prev ** 1.5 / math.sqrt(l_k)
    return 2.0 * a2 * total


def symplectic_eigenvalues(params: KeyRateParams, z: float) -> tuple[float, float, float, float, float]:
    """(lambda_1..lambda_5) of the pre- and post-measurement covariances."""
    v, t = params.v, params.transmittance
    chi_line, chi_het, chi_tot = params.chi_line, params.chi_het, params.chi_tot

    a = v * v + t * t * (v + chi_line) ** 2 - 2.0 * t * z * z
    b = (t * (v * v + v * chi_line - z * z)) ** 2
    lam12 = _eig_pair(a, b, which="lambda_1,2")

    denom = (t * (v + chi_tot)) ** 2
    c = (a * chi_het * chi_het + b + 1.0
         + 2.0 * chi_het * (v * math.sqrt(b) + t * (v + chi_line))
         + 2.0 * t * z * z) / denom
    d = ((v + math.sqrt(b) * chi_het) ** 2) / denom
    lam34 = _eig_pair(c, d, which="lambda_3,4")

    return (*lam12, *lam34, 1.0)


def _eig_pair(s: float, p: float, which: str) -> tuple[float, float]:
    """Eigenvalues from lambda^2 = [s +- sqrt(s^2 - 4p)] / 2."""
    disc = s * s - 4.0 * p
    if disc < 0:
        if disc > -1e-9 * max(s * s, 1.0):
            disc = 0.0
        else:
            raise NumericalDomainError(f"negative discriminant for {which}", s=s, p=p, discriminant=disc)
    root = math.sqrt(disc)
    # the + root eigenvalue is checked before the - root one, which fixes the error a bad pair raises
    sq = (s + root) / 2.0
    if sq < 0:
        raise NumericalDomainError(f"negative squared eigenvalue for {which}", s=s, p=p, value=sq)
    lam_plus = math.sqrt(sq)
    if lam_plus < 1.0 - _LAMBDA_TOLERANCE:
        raise NumericalDomainError(f"unphysical {which} below 1", **{"lambda": lam_plus, "s": s, "p": p})
    sq = (s - root) / 2.0
    if sq < 0:
        raise NumericalDomainError(f"negative squared eigenvalue for {which}", s=s, p=p, value=sq)
    lam_minus = math.sqrt(sq)
    if lam_minus < 1.0 - _LAMBDA_TOLERANCE:
        raise NumericalDomainError(f"unphysical {which} below 1", **{"lambda": lam_minus, "s": s, "p": p})
    return 1.0 if lam_plus < 1.0 else lam_plus, 1.0 if lam_minus < 1.0 else lam_minus


def holevo_chi_be(params: KeyRateParams) -> tuple[float, float, tuple[float, ...]]:
    """Holevo bound chi_BE; returns (chi, z, lambdas)."""
    z = covariance_z(params.protocol, params.vm)
    try:
        lams = symplectic_eigenvalues(params, z)
    except OverflowError:  # a power of a covariance term past the float range
        raise NumericalDomainError("covariance terms overflow", vm=params.vm, transmittance=params.transmittance,
                                   chi_tot=params.chi_tot) from None
    chi = (entropy_g((lams[0] - 1.0) / 2.0) + entropy_g((lams[1] - 1.0) / 2.0)
           - entropy_g((lams[2] - 1.0) / 2.0) - entropy_g((lams[3] - 1.0) / 2.0)
           - entropy_g((lams[4] - 1.0) / 2.0))
    return chi, z, lams


def delta_n(params: KeyRateParams) -> float:
    """Finite-size privacy-amplification penalty Delta(n)."""
    if params.n is None:
        raise InvalidParameterError("finite-size rate needs n and big_n")
    n = params.n
    return (2 * DIM_HB + 3) * math.sqrt(math.log2(2.0 / params.eps_bar) / n) + (2.0 / n) * math.log2(1.0 / params.eps_pa)


def _rate(params: KeyRateParams, finite: bool) -> RateResult:
    """The one body of rate_asymptotic and rate_finite."""
    d = delta_n(params) if finite else None
    i_ab = mutual_information(params)
    if params.protocol is Protocol.ML:
        eve, gain = params.ml_eve_term, params.beta * params.lam * i_ab
    else:
        eve, gain = holevo_chi_be(params)[0], params.beta * i_ab
    key = gain - eve if d is None else params.n / params.big_n * (gain - eve - d)
    if not math.isfinite(key):  # the constructor raises the NumericalDomainError
        return RateResult(params.protocol, key, i_ab, eve, delta_n=d)
    # a finite key passes __post_init__, so the result is built as KeyRateParams.at builds a point
    result = object.__new__(RateResult)
    object.__setattr__(result, "__dict__", {"protocol": params.protocol, "key_rate": key,
                                            "mutual_information": i_ab, "holevo_term": eve, "delta_n": d})
    return result


def rate_asymptotic(params: KeyRateParams) -> RateResult:
    """K = beta I - chi_BE, or beta Lambda I - chi_E for the ML protocol."""
    return _rate(params, finite=False)


def rate_finite(params: KeyRateParams) -> RateResult:
    """Finite-size rate (n/N) [beta I - chi - Delta(n)].

    The traditional protocols charge chi_BE evaluated at the nominal
    channel parameters (an optimistic bound: no confidence-interval
    widening of T and xi); the ML protocol charges the pluggable
    eavesdropper term and scales I by Lambda.
    """
    return _rate(params, finite=True)


@dataclass(frozen=True)
class OptimalVariance:
    distance_km: float
    vm: float
    key_rate: float
    no_positive_rate: bool


def _golden_section_max(f, lo: float, hi: float, xtol: float) -> float:
    """Argmax of a unimodal f on [lo, hi] to within xtol.

    An xtol below the float resolution of the bracket cannot be met: the
    ends stop moving once they are adjacent floats. The search therefore
    also stops after _GOLDEN_STEPS steps; each step keeps 0.618 of the
    bracket, so by then any bracket has shrunk to its resolution.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if b - a <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def optimize_vm(distances_km, params: KeyRateParams, v_lo: float = 0.05,
                v_hi: float = 20.0) -> list[OptimalVariance]:
    """Per-distance argmax of the key rate over modulation variance.

    The rate is that of params.protocol, finite-size when params carries
    n and big_n. A 32-point log-spaced coarse grid locates the basin of the
    optimum (the rate surface is near-flat around it at long distance),
    then golden-section search refines within the bracketing grid interval
    to 0.01. Distances where even the best rate is nonpositive are flagged.
    """
    if not isinstance(params, KeyRateParams):
        raise InvalidParameterError(f"params must be a KeyRateParams, got {params!r}")
    try:
        distances_km = list(distances_km)
    except TypeError:
        raise InvalidParameterError(
            f"distances_km must be an iterable of distances, got {distances_km!r}") from None
    v_lo, v_hi = real_number("v_lo", v_lo), real_number("v_hi", v_hi)
    if not (math.isfinite(v_lo) and math.isfinite(v_hi) and 0 < v_lo < v_hi):
        raise InvalidParameterError(f"need finite 0 < v_lo < v_hi, got [{v_lo}, {v_hi}]")
    rate_of = rate_asymptotic if params.n is None else rate_finite

    results = []
    # Python floats: numpy scalars would make every rate slower and warn on overflow
    grid = [float(v) for v in np.geomspace(v_lo, v_hi, _COARSE_POINTS)]
    for distance in distances_km:
        point = params.at(transmittance=transmittance_from_distance(distance))

        def rate(vm: float) -> float:
            return rate_of(point.at(vm=vm)).key_rate

        coarse = [rate(v) for v in grid]
        best = coarse.index(max(coarse))  # the first maximum, as np.argmax; every rate is finite
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        vm_opt = _golden_section_max(rate, lo, hi, _XTOL)
        key = rate(vm_opt)
        results.append(OptimalVariance(
            distance_km=float(distance),
            vm=float(vm_opt),
            key_rate=float(key),
            no_positive_rate=bool(key <= 0.0),
        ))
    return results
