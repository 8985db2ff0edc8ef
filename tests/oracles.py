"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written in a different style from the
package: dict-and-loop counting instead of vectorized numpy, direct
pairwise statistics instead of sweep algorithms, an integral-free
series route for the constellation weights, and explicit covariance
matrices with numerical symplectic spectra instead of the closed-form
eigenvalues of the key rate. Tests compare package output
against these implementations (and against values frozen from 50-digit
evaluations of the same routes). Two more are the package's own earlier
code, kept where a faster path replaced it and must agree bit for bit:
the direct neighbour search and the row-loop average precision. The
per-point quadrant rule `labels_of` is the package's earlier label rule,
kept as the reference for the vectorized `quadrant_flags`, and the
label-set scan is the package's earlier flags-to-state mapping, kept as
the reference for the scheme's decode table. The per-point optimal-V_m
search and the per-row key-rate table are the key-rate loops that
recomputed Z and rebuilt the parameters for every point, kept as the
reference for the loops that compute both once per V_m. The two
separate key-rate bodies are the package's earlier rate_asymptotic and
rate_finite, kept as the reference for the one body they now share. The
csv.writer table writer is the package's earlier CSV writer, kept as the
reference for the one that formats each row with a single format string.
The per-symbol transcript loop is the package's earlier key builder,
kept as the reference for the keys built from one lookup per state and
the agreement counted on states. The (n, w, 2) difference-array feature
extraction is the package's earlier extract_batch, kept as the reference
for the one that builds the (n, w) result in place.
"""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np

from mlcvqkd.channel import transmittance_from_distance
from mlcvqkd.cli import _keyrate_params
from mlcvqkd.errors import InvalidParameterError
from mlcvqkd.keyrate import (
    OptimalVariance,
    Protocol,
    RateResult,
    _GOLDEN_STEPS,
    delta_n,
    holevo_chi_be,
    mutual_information,
    rate_asymptotic,
    rate_finite,
)
from mlcvqkd.statespace import encode


class BruteForceMultiLabelKnn:
    """Reference Bayesian multi-label kNN recomputing every count per query."""

    def __init__(self, points, labelsets, k, s=1.0, t=1.0, n_labels=4):
        self.points = [tuple(map(float, p)) for p in points]
        self.labelsets = [set(ls) for ls in labelsets]
        self.k = k
        self.s = float(s)
        self.t = float(t)
        self.n_labels = n_labels
        self.m = len(self.points)
        self._fit()

    def _nearest(self, x, exclude=None):
        scored = []
        for idx, p in enumerate(self.points):
            if idx == exclude:
                continue
            scored.append((math.dist(x, p), idx))
        scored.sort(key=lambda pair: (pair[0], pair[1]))
        return [idx for _, idx in scored[: self.k]]

    def _fit(self):
        s, k, m = self.s, self.k, self.m
        self.prior = {}
        for j in range(1, self.n_labels + 1):
            carriers = sum(1 for ls in self.labelsets if j in ls)
            self.prior[j] = (s + carriers) / (2 * s + m)

        sigma = {(j, r): 0 for j in range(1, self.n_labels + 1) for r in range(k + 1)}
        sigma_bar = dict(sigma)
        for i, x in enumerate(self.points):
            neigh = self._nearest(x, exclude=i)
            for j in range(1, self.n_labels + 1):
                r = sum(1 for idx in neigh if j in self.labelsets[idx])
                if j in self.labelsets[i]:
                    sigma[(j, r)] += 1
                else:
                    sigma_bar[(j, r)] += 1
        self.sigma = sigma
        self.sigma_bar = sigma_bar

    def conditional(self, j, r, carrier):
        s, k = self.s, self.k
        table = self.sigma if carrier else self.sigma_bar
        total = sum(table[(j, rr)] for rr in range(k + 1))
        return (s + table[(j, r)]) / (s * (k + 1) + total)

    def predict(self, x):
        neigh = self._nearest(tuple(map(float, x)))
        ratios, labels = {}, set()
        for j in range(1, self.n_labels + 1):
            c = sum(1 for idx in neigh if j in self.labelsets[idx])
            num = self.prior[j] * self.conditional(j, c, carrier=True)
            den = (1 - self.prior[j]) * self.conditional(j, c, carrier=False)
            ratios[j] = num / den
            if ratios[j] > self.t:
                labels.add(j)
        return ratios, labels


def bayes_optimal_labels(received, points, labelsets, transmittance, noise_variance,
                         n_labels=4):
    """Per-label MAP decoder for the known Gaussian-mixture channel.

    States are equally likely, and a sent point x arrives as a Gaussian
    of mean sqrt(T) x and variance noise_variance per quadrature. For
    each received point, the posterior over states follows from that
    likelihood; label j is predicted when the states carrying it hold a
    posterior mass above one half.
    """
    root_t = math.sqrt(transmittance)
    centres = [(root_t * q, root_t * p) for q, p in points]
    out = []
    for y in received:
        log_lik = [-math.dist(y, c) ** 2 / (2.0 * noise_variance) for c in centres]
        top = max(log_lik)
        weights = [math.exp(v - top) for v in log_lik]
        total = sum(weights)
        labels = set()
        for j in range(1, n_labels + 1):
            mass = sum(w for w, ls in zip(weights, labelsets) if j in ls)
            if mass / total > 0.5:
                labels.add(j)
        out.append(labels)
    return out


def mann_whitney_auc(scores, truth):
    """Pairwise positives-above-negatives statistic, ties half-weighted."""
    pos = [s for s, y in zip(scores, truth) if y]
    neg = [s for s, y in zip(scores, truth) if not y]
    if not pos or not neg:
        return float("nan")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def direct_average_precision(score_rows, truth_rows):
    """Literal rank-counting evaluation of label-ranking precision."""
    per_sample = []
    for scores, truths in zip(score_rows, truth_rows):
        true_labels = [j for j, y in enumerate(truths) if y]
        if not true_labels:
            continue
        order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
        rank = {j: order.index(j) + 1 for j in range(len(scores))}
        acc = 0.0
        for y in true_labels:
            above = sum(1 for y2 in true_labels if rank[y2] <= rank[y])
            acc += above / rank[y]
        per_sample.append(acc / len(true_labels))
    return sum(per_sample) / len(per_sample)


def loop_average_precision(scores, true_flags):
    """Label-ranking average precision, one sample at a time.

    The package's original row loop, kept as the reference for its
    vectorized form: a stable argsort per row gives the ranks, and the
    per-sample means are summed in row order.
    """
    total = 0.0
    counted = 0
    for score_row, true_row in zip(np.asarray(scores, dtype=float), np.asarray(true_flags, dtype=bool)):
        true_idx = np.flatnonzero(true_row)
        if true_idx.size == 0:
            continue
        order = np.argsort(-score_row, kind="stable")
        ranks = np.empty(len(score_row), dtype=int)
        ranks[order] = np.arange(1, len(score_row) + 1)
        true_ranks = np.sort(ranks[true_idx])
        sample_ap = np.mean([(i + 1) / r for i, r in enumerate(true_ranks)])
        total += sample_ap
        counted += 1
    return total / counted


def constellation_weights_series(a2, n_states):
    """Weights l_k by the discrete-Fourier route, independent of the
    closed hyperbolic/trigonometric forms used in the package."""
    out = []
    for k in range(n_states):
        total = 0.0
        for m in range(n_states):
            phase = 2.0 * math.pi * m / n_states
            total += math.exp(a2 * math.cos(phase)) * math.cos(a2 * math.sin(phase) - phase * k)
        out.append(math.exp(-a2) / n_states * total)
    return out


def correlation_from_weights(a2, weights):
    total = 0.0
    for k in range(len(weights)):
        total += weights[k - 1] ** 1.5 / math.sqrt(weights[k])
    return 2.0 * a2 * total


def _symplectic_spectrum(gamma):
    """Symplectic eigenvalues as the moduli of the eigenvalues of i Omega gamma,
    each of which comes as a +- pair."""
    n = len(gamma) // 2
    omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    moduli = sorted(abs(e) for e in np.linalg.eigvals(1j * omega @ gamma))
    return moduli[::2]


def _entropy_of_mode(lam):
    x = (lam - 1.0) / 2.0
    if x <= 1e-15:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def covariance_matrix_rate(vm, transmittance, excess_noise, eta, v_el, beta, n_states=None):
    """Asymptotic heterodyne reverse-reconciliation rate built from matrices.

    Writes down the covariance matrix of Alice's and Bob's modes, models
    the detector as a beam splitter of transmittance eta mixing Bob's mode
    with one arm of an EPR pair of variance 1 + 2 v_el / (1 - eta),
    conditions Alice's and the detector's modes on an ideal heterodyne of
    Bob's output, and takes every symplectic spectrum numerically. The
    correlation Z comes from the Fourier-route weights above for n_states
    4 or 8, and is the Gaussian sqrt(V^2 - 1) for None.
    """
    v = vm + 1.0
    if n_states is None:
        z = math.sqrt(v * v - 1.0)
    else:
        z = correlation_from_weights(vm / 2.0, constellation_weights_series(vm / 2.0, n_states))
    t = transmittance
    v_b = t * (v - 1.0) + 1.0 + t * excess_noise
    v_det = 1.0 + 2.0 * v_el / (1.0 - eta)
    c_det = math.sqrt(v_det * v_det - 1.0)
    # modes A, B, F0, G; F0 and G form the detector's EPR pair
    one, flip = np.eye(2), np.diag([1.0, -1.0])
    gamma = np.zeros((8, 8))
    for i, j, block in ((0, 0, v * one), (1, 1, v_b * one), (0, 1, math.sqrt(t) * z * flip),
                        (1, 0, math.sqrt(t) * z * flip), (2, 2, v_det * one),
                        (3, 3, v_det * one), (2, 3, c_det * flip), (3, 2, c_det * flip)):
        gamma[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = block
    s_ab = _symplectic_spectrum(gamma[:4, :4])

    splitter = np.eye(8)
    splitter[2:6, 2:6] = np.kron([[math.sqrt(eta), math.sqrt(1.0 - eta)],
                                  [-math.sqrt(1.0 - eta), math.sqrt(eta)]], one)
    gamma = splitter @ gamma @ splitter.T
    rest, measured = [0, 1, 4, 5, 6, 7], [2, 3]
    sigma = gamma[np.ix_(rest, measured)]
    conditional = (gamma[np.ix_(rest, rest)]
                   - sigma @ np.linalg.inv(gamma[np.ix_(measured, measured)] + one) @ sigma.T)
    s_cond = _symplectic_spectrum(conditional)

    chi = sum(_entropy_of_mode(lam) for lam in s_ab) - sum(_entropy_of_mode(lam) for lam in s_cond)
    chi_tot = 1.0 / t - 1.0 + excess_noise + (2.0 - eta + 2.0 * v_el) / (eta * t)
    mutual = math.log2((v + chi_tot) / (1.0 + chi_tot))
    return beta * mutual - chi


def stable_argsort_neighbors(queries, training, k, exclude_self=False):
    """The direct kNN search: every distance, then a stable argsort.

    Indices (n, k) of each query's k nearest training rows. Ties at equal
    distance are broken toward the lower training index. With
    exclude_self, query row i is assumed to be training row i and is
    skipped. This is the package's original search, kept verbatim as the
    reference for the candidate-and-re-check search that replaced it.
    """
    chunk = 256  # queries per distance block
    n = queries.shape[0]
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = queries[start:stop]
        diff = block[:, None, :] - training[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        if exclude_self:
            cols = np.arange(start, stop)
            dist[np.arange(stop - start), cols] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")
        out[start:stop] = order[:, :k]
    return out


def difference_array_features(points, refs):
    """Distance features (n, w) of points (n, 2) against refs (w, 2),
    through the (n, w, 2) difference array: the package's earlier
    extract_batch body, kept verbatim as the reference for the in-place
    one that replaced it."""
    diff = points[:, None, :] - refs[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def labels_of(point) -> frozenset[int]:
    """Quadrant label set of a phase-space point (q, p).

    Interior points get the single label of their quadrant, points on an
    axis get the two labels of the adjacent quadrants, and the origin gets
    all four (the closure of every quadrant contains it).
    """
    q, p = point
    if q == 0.0 and p == 0.0:
        return frozenset({1, 2, 3, 4})
    if q == 0.0:
        return frozenset({1, 2}) if p > 0 else frozenset({3, 4})
    if p == 0.0:
        return frozenset({4, 1}) if q > 0 else frozenset({2, 3})
    if q > 0:
        return frozenset({1}) if p > 0 else frozenset({4})
    return frozenset({2}) if p > 0 else frozenset({3})


def scan_state_for_flags(scheme, flag_row):
    """Index of the state whose label set is exactly the row's flagged
    labels, or 0 when no state carries that set: a linear scan over the
    label sets of the scheme's points, the package's original decoder."""
    labels = frozenset(j + 1 for j, flag in enumerate(flag_row) if flag)
    for index, point in enumerate(scheme.points, start=1):
        if labels_of(point) == labels:
            return index
    return 0


def _golden_section_max(f, lo: float, hi: float, xtol: float) -> float:
    """Argmax of a unimodal f on [lo, hi] to within xtol, one scalar point
    a step: the package's earlier golden-section search, kept verbatim."""
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


def per_point_optimize_vm(protocol, distances_km, params, v_lo=0.05, v_hi=20.0,
                          coarse_points=32, xtol=0.01, finite=False):
    """The optimal-V_m search with one dataclasses.replace and a fresh Z
    per rate point: the package's earlier optimize_vm, kept verbatim."""
    if not 0 < v_lo < v_hi:
        raise InvalidParameterError(f"need 0 < v_lo < v_hi, got [{v_lo}, {v_hi}]")
    rate_of = rate_finite if finite else rate_asymptotic

    results = []
    grid = np.geomspace(v_lo, v_hi, coarse_points)
    for distance in distances_km:
        t = transmittance_from_distance(distance)

        def rate(vm: float) -> float:
            p = dataclasses.replace(params, vm=vm, transmittance=t, protocol=protocol)
            return rate_of(p).key_rate

        coarse = [rate(v) for v in grid]
        best = int(np.argmax(coarse))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        vm_opt = _golden_section_max(rate, lo, hi, xtol)
        key = rate(vm_opt)
        results.append(OptimalVariance(
            distance_km=float(distance),
            vm=float(vm_opt),
            key_rate=float(key),
            no_positive_rate=bool(key <= 0.0),
        ))
    return results


def per_row_keyrate_rows(section):
    """The rows of a keyrate table with the section converted and Z
    computed again for every distance: the package's earlier cmd_keyrate
    loop, with the section read by _keyrate_params."""
    distances = [float(d) for d in section["distances_km"]]
    finite = bool(section["finite"])
    rows = []
    for distance in distances:
        t = transmittance_from_distance(distance)
        params = _keyrate_params(section, transmittance=t)
        result = rate_finite(params) if finite else rate_asymptotic(params)
        rows.append([
            distance, t, params.vm, result.mutual_information,
            result.holevo_term, result.delta_n if result.delta_n is not None else 0.0,
            result.key_rate, params.protocol.value,
        ])
    return rows


def separate_rate_asymptotic(params):
    """The asymptotic rate with its own ML and Holevo branches: the
    package's earlier rate_asymptotic, kept verbatim."""
    i_ab = mutual_information(params)
    if params.protocol is Protocol.ML:
        key = params.beta * params.lam * i_ab - params.ml_eve_term
        return RateResult(params.protocol, key, i_ab, params.ml_eve_term)
    chi, _, _ = holevo_chi_be(params)
    key = params.beta * i_ab - chi
    return RateResult(params.protocol, key, i_ab, chi)


def separate_rate_finite(params):
    """The finite-size rate with its own ML and Holevo branches: the
    package's earlier rate_finite, kept verbatim."""
    d = delta_n(params)
    ratio = params.n / params.big_n
    i_ab = mutual_information(params)
    if params.protocol is Protocol.ML:
        key = ratio * (params.beta * params.lam * i_ab - params.ml_eve_term - d)
        return RateResult(params.protocol, key, i_ab, params.ml_eve_term, delta_n=d)
    chi, _, _ = holevo_chi_be(params)
    key = ratio * (params.beta * i_ab - chi - d)
    return RateResult(params.protocol, key, i_ab, chi, delta_n=d)


def csv_writer_table(path, header, rows):
    """A CSV table with every row through csv.writer: the package's earlier
    _write_csv, kept verbatim."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def per_symbol_transcript_keys(rule, sent_states, predicted_states):
    """(alice_key, bob_key, agreement_rate) with one encode call per kept
    symbol on each side and agreement counted on the bit strings: the
    package's earlier state_prediction loop, kept verbatim."""
    kept = predicted_states > 0
    alice_symbols = [encode(rule, int(k)) for k in sent_states[kept]]
    bob_symbols = [encode(rule, int(k)) for k in predicted_states[kept]]
    matches = sum(a == b for a, b in zip(alice_symbols, bob_symbols))
    agreement = matches / len(alice_symbols) if alice_symbols else 1.0
    return "".join(alice_symbols), "".join(bob_symbols), float(agreement)
