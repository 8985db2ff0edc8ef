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

import dataclasses
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import transmittance_from_distance
from .errors import InvalidParameterError, NumericalDomainError, array, instance, integer, member, real_number

DIM_HB = 2
_LAMBDA_TOLERANCE = 1e-9
_COARSE_POINTS = 32  # optimize_vm's log-spaced grid over [v_lo, v_hi]
_XTOL = 0.01  # optimize_vm's golden-section tolerance on V_m
_GOLDEN_STEPS = 3100  # log(1.8e308 / 5e-324) / log(1 / 0.618): about 3020 steps
_KERNEL_POINTS = 512  # key_rates evaluates at most this many points at once, so its temporaries stay small


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


@dataclass(frozen=True)
class KeyRateParams:
    """Every scalar entering the rate formulas.

    The float fields are stored as Python floats, whatever real type was
    given; a bool, a string or None is an InvalidParameterError. The channel
    terms v = V_m + 1, chi_line, chi_het and chi_tot (see the module
    docstring) are computed once, when a point is made, and read as
    attributes; they are not fields, so they take no part in ==, repr or
    dataclasses.asdict.

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
        object.__setattr__(self, "protocol", member("protocol", self.protocol, Protocol))
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
                object.__setattr__(self, name, integer(name, getattr(self, name)))
            if self.n <= 0 or self.big_n <= 0 or self.n > self.big_n:
                raise InvalidParameterError(f"need 0 < n <= N, got n={self.n}, N={self.big_n}")
        if not math.isfinite(self.ml_eve_term):
            raise InvalidParameterError(f"ml_eve_term must be finite, got {self.ml_eve_term}")
        chi_het = (1.0 + (1.0 - self.eta) + 2.0 * self.v_el) / self.eta
        chi_line = 1.0 / self.transmittance - 1.0 + self.excess_noise
        # plain attributes, not fields, so they are written past the frozen __setattr__
        vars(self).update(v=self.vm + 1.0, chi_line=chi_line, chi_het=chi_het,
                          chi_tot=chi_line + chi_het / self.transmittance)


@dataclass(frozen=True)
class RateResult:
    """A key rate with its intermediate quantities.

    The float fields (delta_n when not None) must be real numbers and are
    stored as Python floats, and the key rate must be finite.
    """

    protocol: Protocol
    key_rate: float
    mutual_information: float
    holevo_term: float
    delta_n: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "protocol", member("protocol", self.protocol, Protocol))
        for name in ("key_rate", "mutual_information", "holevo_term"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if self.delta_n is not None:
            object.__setattr__(self, "delta_n", real_number("delta_n", self.delta_n))
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
    instance("params", params, KeyRateParams)
    return _mutual_information(params)


def _mutual_information(params: KeyRateParams) -> float:
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


def _covariance_z(protocol: Protocol, vm: float) -> float:
    """covariance_z of a checked protocol and V_m; the rate path, whose
    points are checked, calls it directly."""
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


def covariance_z(protocol: Protocol, vm: float) -> float:
    """Alice-Bob correlation Z for the given protocol at variance vm."""
    protocol = member("protocol", protocol, Protocol)
    vm = real_number("vm", vm)
    if not 0 <= vm < math.inf:
        raise InvalidParameterError(f"modulation variance must be finite and nonnegative, got {vm}")
    return _covariance_z(protocol, vm)


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
    """Holevo bound chi_BE, never below 0; returns (chi, z, lambdas)."""
    instance("params", params, KeyRateParams)
    return _holevo_chi_be(params)


def _holevo_chi_be(params: KeyRateParams) -> tuple[float, float, tuple[float, ...]]:
    z = _covariance_z(params.protocol, params.vm)
    try:
        lams = symplectic_eigenvalues(params, z)
    except OverflowError:  # a power of a covariance term past the float range
        raise NumericalDomainError("covariance terms overflow", vm=params.vm, transmittance=params.transmittance,
                                   chi_tot=params.chi_tot) from None
    chi = (entropy_g((lams[0] - 1.0) / 2.0) + entropy_g((lams[1] - 1.0) / 2.0)
           - entropy_g((lams[2] - 1.0) / 2.0) - entropy_g((lams[3] - 1.0) / 2.0)
           - entropy_g((lams[4] - 1.0) / 2.0))
    # the sum cancels to a few ulps below 0 at long distance; chi >= 0, and NaN passes
    return (0.0 if chi < 0.0 else chi), z, lams


def delta_n(params: KeyRateParams) -> float:
    """Finite-size privacy-amplification penalty Delta(n)."""
    instance("params", params, KeyRateParams)
    return _delta_n(params)


def _delta_n(params: KeyRateParams) -> float:
    if params.n is None:
        raise InvalidParameterError("finite-size rate needs n and big_n")
    n = params.n
    return (2 * DIM_HB + 3) * math.sqrt(math.log2(2.0 / params.eps_bar) / n) + (2.0 / n) * math.log2(1.0 / params.eps_pa)


def _rate(params: KeyRateParams, finite: bool) -> RateResult:
    """The one body of rate_asymptotic and rate_finite; its one check of
    params covers the unchecked terms it calls."""
    instance("params", params, KeyRateParams)
    d = _delta_n(params) if finite else None
    i_ab = _mutual_information(params)
    if params.protocol is Protocol.ML:
        eve, gain = params.ml_eve_term, params.beta * params.lam * i_ab
    else:
        eve, gain = _holevo_chi_be(params)[0], params.beta * i_ab
    key = gain - eve if d is None else params.n / params.big_n * (gain - eve - d)
    return RateResult(params.protocol, key, i_ab, eve, delta_n=d)


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


def _log2(x: np.ndarray) -> np.ndarray:
    # math.log2 of each element, as the scalar rate takes it: np.log2 rounds some results differently
    return np.fromiter(map(math.log2, x.tolist()), float, len(x))


def _squared(x: np.ndarray) -> np.ndarray:
    # x ** 2 of each element as a Python float, which is libm's pow(x, 2); numpy's x ** 2 is x * x, which
    # can differ in the last bit
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(2)), float, len(x))


def _entropy_g_array(lam: np.ndarray) -> np.ndarray:
    """entropy_g((lam - 1) / 2) at each eigenvalue lam >= 1 (or NaN)."""
    x = (lam - 1.0) / 2.0
    zero = x == 0.0
    x = np.where(zero, 1.0, x)  # math.log2(0) raises; G(0) = 0 is set below
    g = (x + 1.0) * _log2(x + 1.0) - x * _log2(x)
    g[zero] = 0.0
    return g


def _eig_pairs(s: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_eig_pair at each element: both eigenvalues, and where _eig_pair raises."""
    disc = s * s - 4.0 * p
    negative = disc < 0
    failed = negative & ~(disc > -1e-9 * np.maximum(s * s, 1.0))
    root = np.sqrt(np.where(negative, 0.0, disc))
    pair = []
    for sq in ((s + root) / 2.0, (s - root) / 2.0):
        lam = np.sqrt(sq)
        failed |= (sq < 0) | (lam < 1.0 - _LAMBDA_TOLERANCE)
        pair.append(np.where(lam < 1.0, 1.0, lam))
    return pair[0], pair[1], failed


def _holevo_chi_be_array(params: KeyRateParams, vms, v, t, chi_line, chi_tot) -> tuple[np.ndarray, np.ndarray]:
    """holevo_chi_be's chi at each point, and where symplectic_eigenvalues raises."""
    distinct, inverse = np.unique(vms, return_inverse=True)
    z = np.empty(len(distinct))
    for i, vm in enumerate(distinct.tolist()):  # covariance_z once per distinct V_m
        try:
            z[i] = _covariance_z(params.protocol, vm)
        except NumericalDomainError:  # a NaN Z fails the point, and the scalar rate raises this error again
            z[i] = math.nan
    z = z[inverse]
    chi_het = params.chi_het
    # symplectic_eigenvalues, term by term in its order of operations
    a = v * v + t * t * _squared(v + chi_line) - 2.0 * t * z * z
    b = _squared(t * (v * v + v * chi_line - z * z))
    lam1, lam2, failed = _eig_pairs(a, b)
    denom = _squared(t * (v + chi_tot))
    root_b = np.sqrt(b)
    c = (a * chi_het * chi_het + b + 1.0
         + 2.0 * chi_het * (v * root_b + t * (v + chi_line))
         + 2.0 * t * z * z) / denom
    d = _squared(v + root_b * chi_het) / denom
    lam3, lam4, failed34 = _eig_pairs(c, d)
    # the fifth eigenvalue is 1, whose G(0) = 0 changes no bit of the sum
    chi = _entropy_g_array(lam1) + _entropy_g_array(lam2) - _entropy_g_array(lam3) - _entropy_g_array(lam4)
    return np.where(chi < 0.0, 0.0, chi), failed | failed34


def _key_rates_unchecked(params: KeyRateParams, vms, t, d) -> tuple:
    """_rate's key, I_AB and eavesdropper term (an array, or ml_eve_term) at
    each point, and where _rate raises; d is Delta(n) or None."""
    v = vms + 1.0
    chi_line = 1.0 / t - 1.0 + params.excess_noise
    chi_tot = chi_line + params.chi_het / t
    i_ab = _log2((v + chi_tot) / (1.0 + chi_tot))
    if params.protocol is Protocol.ML:
        eve, gain, failed = params.ml_eve_term, params.beta * params.lam * i_ab, False
    else:
        eve, failed = _holevo_chi_be_array(params, vms, v, t, chi_line, chi_tot)
        gain = params.beta * i_ab
    key = gain - eve if d is None else params.n / params.big_n * (gain - eve - d)
    return key, i_ab, eve, failed | ~np.isfinite(key)


def key_rates(params: KeyRateParams, vms, transmittances) -> np.ndarray:
    """Key rate of params.protocol at each (vms[i], transmittances[i]).

    The rate is rate_finite's when params carries n and big_n, else
    rate_asymptotic's, and each element equals, bit for bit, its key_rate
    at dataclasses.replace(params, vm=vms[i], transmittance=transmittances[i]):
    the arithmetic and square roots are numpy's, which round as Python
    floats do, but each log2 and each ``** 2`` is Python's, one element at
    a time. The other fields of params apply to every point. Points are
    evaluated in order, at most _KERNEL_POINTS (512) at once; where one
    fails a check or its key is not finite, the scalar rate at that point
    raises its typed error.
    """
    return _rate_columns(params, vms, transmittances)[0]


def _rate_columns(params: KeyRateParams, vms, transmittances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """key_rates, with the mutual_information and holevo_term columns of the
    same RateResults, which a keyrate table writes."""
    instance("params", params, KeyRateParams)
    vms = array("vms", vms, (None,))
    t = array("transmittances", transmittances, vms.shape)
    for check, values, valid in ((_checked_vm, vms, (vms > 0) & (vms < math.inf)),
                                 (_checked_transmittance, t, (t > 0) & (t <= 1))):
        if not valid.all():  # the scalar check raises its error for the first invalid element
            check(float(values[np.argmin(valid)]))
    rate_of = rate_asymptotic if params.n is None else rate_finite
    d = None if params.n is None else _delta_n(params)
    keys, i_ab, eve = np.empty(len(vms)), np.empty(len(vms)), np.empty(len(vms))
    for start in range(0, len(vms), _KERNEL_POINTS):
        chunk = slice(start, start + _KERNEL_POINTS)
        with np.errstate(all="ignore"):
            try:
                keys[chunk], i_ab[chunk], eve[chunk], failed = _key_rates_unchecked(params, vms[chunk], t[chunk], d)
            except OverflowError:  # a Python ** 2 past the float range; the scalar rate finds the point
                failed = np.ones(len(vms[chunk]), dtype=bool)
        for i in start + np.flatnonzero(failed):  # in evaluation order, so the first failing point raises
            result = rate_of(dataclasses.replace(params, vm=float(vms[i]), transmittance=float(t[i])))
            keys[i], i_ab[i], eve[i] = result.key_rate, result.mutual_information, result.holevo_term
    return keys, i_ab, eve


@dataclass(frozen=True)
class OptimalVariance:
    distance_km: float
    vm: float
    key_rate: float
    no_positive_rate: bool


def optimize_vm(distances_km, params: KeyRateParams, v_lo: float = 0.05,
                v_hi: float = 20.0) -> list[OptimalVariance]:
    """Per-distance argmax of the key rate over modulation variance.

    The rate is that of params.protocol, finite-size when params carries
    n and big_n. A 32-point log-spaced coarse grid locates the basin of the
    optimum (the rate surface is near-flat around it at long distance),
    then golden-section search refines within the bracketing grid interval
    to 0.01. Distances where even the best rate is nonpositive are flagged.

    The coarse grids of all distances are one key_rates call, and their
    golden-section steps run in lockstep, one call a step over the
    distances still searching. A distance leaves once its bracket is
    within 0.01, or after _GOLDEN_STEPS steps: where adjacent floats are
    more than 0.01 apart the ends stop moving, and each step keeps 0.618
    of the bracket, so by then any bracket has shrunk to its float
    resolution. The rates at the optima are one more key_rates call.
    """
    instance("params", params, KeyRateParams)
    try:
        if isinstance(distances_km, (str, bytes)):  # iterable, but over its characters
            raise TypeError
        distances_km = list(distances_km)
    except TypeError:
        raise InvalidParameterError(
            f"distances_km must be an iterable of distances, got {distances_km!r}") from None
    v_lo, v_hi = real_number("v_lo", v_lo), real_number("v_hi", v_hi)
    if not (math.isfinite(v_lo) and math.isfinite(v_hi) and 0 < v_lo < v_hi):
        raise InvalidParameterError(f"need finite 0 < v_lo < v_hi, got [{v_lo}, {v_hi}]")
    if not distances_km:
        return []
    t = np.array([transmittance_from_distance(distance) for distance in distances_km])

    grid = np.geomspace(v_lo, v_hi, _COARSE_POINTS)
    coarse = key_rates(params, np.tile(grid, len(t)), np.repeat(t, _COARSE_POINTS))
    best = coarse.reshape(len(t), _COARSE_POINTS).argmax(axis=1)  # the first maximum; every rate is finite
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, _COARSE_POINTS - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = key_rates(params, np.column_stack([c, d]).ravel(), np.repeat(t, 2)).reshape(-1, 2).T
    active = np.arange(len(t))
    for _ in range(_GOLDEN_STEPS):
        active = active[b[active] - a[active] > _XTOL]
        if not active.size:
            break
        left = fc[active] >= fd[active]
        lo, hi = active[left], active[~left]  # the maximum is in [a, d], or in [c, b]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - inv_phi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + inv_phi * (b[hi] - a[hi])
        f = key_rates(params, np.where(left, c[active], d[active]), t[active])
        fc[lo], fd[hi] = f[left], f[~left]

    vm_opt = (a + b) / 2.0
    return [OptimalVariance(distance_km=float(distance), vm=vm, key_rate=key, no_positive_rate=key <= 0.0)
            for distance, vm, key in zip(distances_km, vm_opt.tolist(), key_rates(params, vm_opt, t).tolist())]
