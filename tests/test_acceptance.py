"""Acceptance gate: eight numbered end-to-end criteria, one per test.

Each test computes its quantities, prints a single "criterion N:
PASS/FAIL (detail)" line through the shared recorder, and then asserts.
Criterion 2 checks the optimal modulation variance at 80-100 km against
optima solved on an independent covariance-matrix route of the rate.
Criterion 4 fails: at 20 km the QMLC stays below the 0.95 precision and
recall bar, within 0.01 of the Bayes-optimal decoder of the simulated
channel, whose constellation sits at half the amplitude the key-rate
model assumes (see CHANGES.md). The supplementary tests pin where the
0.30/0.35 bands and the 0.95 bar are met (150 km, 8 km); they are not
part of the gate.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from mlcvqkd.channel import (
    ChannelParams,
    RandomSource,
    transmit_batch,
    transmittance_from_distance,
)
from mlcvqkd.classifier import QmlcParams, predict_batch, train
from mlcvqkd.errors import LearningRejectedError
from mlcvqkd.keyrate import (
    KeyRateParams,
    Protocol,
    covariance_z,
    optimize_vm,
    rate_finite,
    symplectic_eigenvalues,
)
from mlcvqkd.metrics import prf, roc_curve
from mlcvqkd.protocol import SessionConfig, intercept_resend_demo, state_learning
from oracles import (
    BruteForceMultiLabelKnn,
    bayes_optimal_labels,
    covariance_matrix_rate,
    labels_of,
    mann_whitney_auc,
)

DEFAULT_SEED = 20240901


def test_criterion_1_attack_demo_strings():
    start = time.perf_counter()
    scenarios = intercept_resend_demo()
    elapsed = time.perf_counter() - start

    got = [(" ".join(sc.alice), " ".join(sc.eve), " ".join(sc.bob)) for sc in scenarios]
    want = [
        ("011 110 001", "011 110 001", "011 110 001"),
        ("100 001 110", "011 110 001", "100 001 110"),
        ("1 1011 10101", "100 001 110", "1 1011 10101"),
    ]
    ok = got == want and elapsed < 1.0
    detail = f"nine strings {'exact' if got == want else 'WRONG: ' + repr(got)}, {elapsed:.3f}s"
    assert record_criterion(1, ok, detail), detail


LONG_DISTANCE_PARAMS = KeyRateParams(vm=1.0, transmittance=0.5, excess_noise=0.01,
                                     eta=0.6, v_el=0.05, beta=0.98)

# Optimal V_m at 80/90/100 km under LONG_DISTANCE_PARAMS: the zeros of
# dK/dV_m, solved at 50 digits (mpmath) on the covariance-matrix route of
# oracles.covariance_matrix_rate, which shares no rate code with the package.
ORACLE_OPTIMA = {
    Protocol.FOUR_STATE: (0.39954, 0.38306, 0.36816),
    Protocol.EIGHT_STATE: (0.52015, 0.48806, 0.46043),
}


def _oracle_peaks_at(protocol, distance_km, vm, step=0.01):
    """True when the oracle rate at vm beats the rate one step either side."""
    n_states = 4 if protocol is Protocol.FOUR_STATE else 8
    p = LONG_DISTANCE_PARAMS
    t = transmittance_from_distance(distance_km)
    rates = [covariance_matrix_rate(v, t, p.excess_noise, p.eta, p.v_el, p.beta, n_states)
             for v in (vm - step, vm, vm + step)]
    return rates[1] > max(rates[0], rates[2])


def test_criterion_2_long_distance_optimal_variance():
    params = LONG_DISTANCE_PARAMS
    distances = [80.0, 90.0, 100.0, 120.0, 150.0]
    start = time.perf_counter()
    four = optimize_vm(distances, dataclasses.replace(params, protocol=Protocol.FOUR_STATE))
    eight = optimize_vm(distances, dataclasses.replace(params, protocol=Protocol.EIGHT_STATE))
    elapsed = time.perf_counter() - start

    # (a) at 80/90/100 km each optimum is the oracle's, to optimize_vm's xtol
    pinned = [
        (protocol, r, want)
        for protocol, results in ((Protocol.FOUR_STATE, four), (Protocol.EIGHT_STATE, eight))
        for r, want in zip(results, ORACLE_OPTIMA[protocol])
    ]
    oracle_gap = max(abs(r.vm - want) for _, r, want in pinned)
    pins_ok = all(_oracle_peaks_at(protocol, r.distance_km, want) for protocol, r, want in pinned)
    four_vms = [r.vm for r in four]
    eight_vms = [r.vm for r in eight]
    # (b) the optimum falls with distance, the eight-state one above the four-state one
    falling = all(a > b for vms in (four_vms, eight_vms) for a, b in zip(vms, vms[1:]))
    ordered = all(e > f for e, f in zip(eight_vms, four_vms))
    ok = oracle_gap <= 0.01 and pins_ok and falling and ordered and elapsed < 120.0
    detail = (
        f"optimum vs 50-digit oracle at 80/90/100 km worst {oracle_gap:.4f} (<=0.01), "
        f"oracle peaks at its pins: {pins_ok}; "
        f"over 80/90/100/120/150 km four-state vm {[round(v, 3) for v in four_vms]}, "
        f"eight-state vm {[round(v, 3) for v in eight_vms]}: falling {falling}, "
        f"eight above four {ordered}; {elapsed:.1f}s"
    )
    assert record_criterion(2, ok, detail), detail


def test_optimal_variance_floors_near_the_positivity_edge():
    """Supplementary, not part of the gate: the optimal-variance bands
    0.30 +- 0.05 (four-state) and 0.35 +- 0.05 (eight-state) hold where each
    protocol's positive-rate range ends (~150 km); at 80-100 km the optimum
    is still above them (criterion 2)."""
    params = LONG_DISTANCE_PARAMS
    four = optimize_vm([150.0], dataclasses.replace(params, protocol=Protocol.FOUR_STATE))[0]
    eight = optimize_vm([150.0], dataclasses.replace(params, protocol=Protocol.EIGHT_STATE))[0]
    assert abs(four.vm - 0.30) <= 0.05
    assert abs(eight.vm - 0.35) <= 0.05


def test_criterion_3_correlation_convergence_and_ordering():
    start = time.perf_counter()
    small = np.linspace(0.01, 0.2, 20)
    rel4 = max(
        abs(covariance_z(Protocol.FOUR_STATE, v) - covariance_z(Protocol.GAUSSIAN, v))
        / covariance_z(Protocol.GAUSSIAN, v)
        for v in small
    )
    rel8 = max(
        abs(covariance_z(Protocol.EIGHT_STATE, v) - covariance_z(Protocol.GAUSSIAN, v))
        / covariance_z(Protocol.GAUSSIAN, v)
        for v in small
    )
    grid = np.linspace(0.5, 100.0, 200)
    ordered = all(
        covariance_z(Protocol.FOUR_STATE, v)
        <= covariance_z(Protocol.EIGHT_STATE, v)
        <= covariance_z(Protocol.GAUSSIAN, v)
        for v in grid
    )
    elapsed = time.perf_counter() - start
    ok = rel4 < 0.01 and rel8 < 0.01 and ordered
    detail = (
        f"max rel gap to Gaussian at vm<=0.2: four {rel4:.2e}, eight {rel8:.2e} (<0.01); "
        f"Z4<=Z8<=ZG on 200-point grid: {ordered}; {elapsed:.2f}s"
    )
    assert record_criterion(3, ok, detail), detail


def _bayes_optimal_prf(config, received, truth):
    """Macro precision and recall of the Bayes-optimal label decoder.

    Decoded label sets that no state carries count as erasures and
    predict no label, as they do for the QMLC.
    """
    scheme = config.scheme
    labelsets = [set(labels_of(point)) for point in scheme.points]
    decoded = bayes_optimal_labels(
        received.tolist(), scheme.points.tolist(), labelsets,
        config.channel.transmittance, config.channel.noise_variance,
    )
    pred = np.zeros(truth.shape, dtype=bool)
    for row, labels in zip(pred, decoded):
        if labels in labelsets:
            row[[j - 1 for j in labels]] = True
    rates = prf(pred, truth)
    return rates.macro_precision, rates.macro_recall


def test_criterion_4_operating_point_classification():
    config = SessionConfig()  # 8PSK, vm=50, 20 km, xi=0.01, k=9, 5000/10000
    start = time.perf_counter()
    try:
        outcome = state_learning(config, RandomSource(DEFAULT_SEED))
        report = outcome.report
    except LearningRejectedError as exc:
        outcome, report = None, exc.report
    elapsed = time.perf_counter() - start

    auc_ok = 0.85 <= report.average_auc <= 1.0
    prf_ok = report.macro_precision >= 0.95 and report.macro_recall >= 0.95
    # the Bayes-optimal decoder of the simulated channel, scored on the
    # QMLC's own testing set, bounds what any classifier reaches there
    if outcome is None:
        bayes_ok, bayes_detail = False, "no testing set (rejected)"
    else:
        bayes_precision, bayes_recall = _bayes_optimal_prf(
            config, outcome.test_received, outcome.test_flags)
        gap = (bayes_precision + bayes_recall - report.macro_precision - report.macro_recall) / 2
        bayes_ok = abs(gap) <= 0.01
        bayes_detail = (f"Bayes-optimal {bayes_precision:.4f}/{bayes_recall:.4f}, "
                        f"mean gap {gap:.4f} (<=0.01): {bayes_ok}")
    ok = auc_ok and prf_ok and bayes_ok and elapsed < 300.0
    detail = (
        f"average AUC {report.average_auc:.4f} in [0.85, 1.0]: {auc_ok}; "
        f"macro precision {report.macro_precision:.4f} and recall "
        f"{report.macro_recall:.4f} >= 0.95: {prf_ok}; {bayes_detail}; {elapsed:.1f}s"
    )
    assert record_criterion(4, ok, detail), detail


def test_precision_recall_target_met_on_a_shorter_channel():
    """Supplementary, not part of the gate: the 0.95 precision/recall bar,
    which not even the Bayes-optimal decoder of the simulated 20 km channel
    reaches, is reached by the same session on an 8 km channel."""
    config = SessionConfig(channel=ChannelParams(distance_km=8.0, excess_noise=0.01))
    report = state_learning(config, RandomSource(DEFAULT_SEED)).report
    assert report.macro_precision >= 0.95
    assert report.macro_recall >= 0.95


def test_criterion_5_finite_size_positivity():
    start = time.perf_counter()
    params = KeyRateParams(
        vm=0.35, transmittance=transmittance_from_distance(10.0), excess_noise=0.01, eta=0.6, v_el=0.05, beta=0.98,
        lam=0.927, protocol=Protocol.ML, n=500_000, big_n=1_000_000, ml_eve_term=0.0,
    )
    result = rate_finite(params)
    elapsed = time.perf_counter() - start
    ok = result.key_rate > 0.0 and elapsed < 1.0
    detail = f"finite-size ML rate at 10 km: {result.key_rate:.6f} > 0, {elapsed:.3f}s"
    assert record_criterion(5, ok, detail), detail


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(DEFAULT_SEED)
    start = time.perf_counter()
    mismatches = 0
    comparisons = 0
    for _ in range(200):
        m = int(rng.integers(8, 51))
        k = int(rng.integers(1, 6))
        # integer grid: distances compare exactly, so ties are real and
        # the lower-index tie rule pins down one correct answer
        points = rng.integers(0, 12, size=(m, 2)).astype(float)
        labelsets = [{j for j in range(1, 5) if rng.random() < 0.45} for _ in range(m)]
        flags = np.zeros((m, 4), dtype=bool)
        for i, ls in enumerate(labelsets):
            for j in ls:
                flags[i, j - 1] = True

        clf = train(points, flags, QmlcParams(k=k))
        oracle = BruteForceMultiLabelKnn(points, labelsets, k)
        queries = rng.integers(0, 12, size=(5, 2)).astype(float)
        ratios, pred_flags = predict_batch(clf, queries)
        for q, ratio_row, flag_row in zip(queries, ratios, pred_flags):
            want_ratios, want_labels = oracle.predict(q)
            got_labels = {j for j in range(1, 5) if flag_row[j - 1]}
            ratios_close = all(
                math.isclose(ratio_row[j - 1], want_ratios[j], rel_tol=1e-12) for j in range(1, 5)
            )
            comparisons += 1
            if got_labels != want_labels or not ratios_close:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    detail = f"{comparisons} predictions over 200 fixtures, {mismatches} mismatches, {elapsed:.1f}s"
    assert record_criterion(6, ok, detail), detail


def test_criterion_7_numerical_identities():
    rng = np.random.default_rng(DEFAULT_SEED)
    start = time.perf_counter()

    # total-noise decomposition equals its closed form
    worst_chi = 0.0
    for _ in range(10_000):
        t = float(rng.uniform(1e-3, 1.0))
        xi = float(rng.uniform(0.0, 0.2))
        eta = float(rng.uniform(0.05, 1.0))
        v_el = float(rng.uniform(0.0, 0.5))
        p = KeyRateParams(vm=1.0, transmittance=t, excess_noise=xi, eta=eta, v_el=v_el)
        closed = xi - 1.0 + 2.0 * (1.0 + v_el) / (eta * t)
        worst_chi = max(worst_chi, abs(p.chi_tot - closed) / max(1.0, abs(closed)))
    chi_ok = worst_chi < 1e-12

    # the measurement-side spectrum always carries an exact unit eigenvalue
    lam5_ok = True
    for protocol in (Protocol.FOUR_STATE, Protocol.EIGHT_STATE, Protocol.GAUSSIAN):
        for distance in (5.0, 20.0, 50.0, 100.0):
            p = KeyRateParams(vm=0.35, transmittance=transmittance_from_distance(distance), protocol=protocol)
            lams = symplectic_eigenvalues(p, covariance_z(protocol, p.vm))
            lam5_ok = lam5_ok and lams[4] == 1.0

    # smoothed count conditionals stay normalized
    worst_norm = 0.0
    for _ in range(20):
        m = int(rng.integers(10, 80))
        k = int(rng.integers(1, 8))
        features = rng.normal(size=(m, 3))
        flags = rng.random((m, 4)) < 0.5
        clf = train(features, flags, QmlcParams(k=k))
        worst_norm = max(
            worst_norm,
            float(abs(clf.cond_pos.sum(axis=1) - 1.0).max()),
            float(abs(clf.cond_neg.sum(axis=1) - 1.0).max()),
        )
    norm_ok = worst_norm < 1e-12

    # swept ROC area equals the pairwise ranking statistic
    worst_auc = 0.0
    for _ in range(40):
        size = int(rng.integers(2, 101))
        scores = rng.random(size).round(1)
        truth = rng.random(size) < 0.5
        truth[0], truth[-1] = True, False
        _, auc = roc_curve(scores, truth)
        worst_auc = max(worst_auc, abs(auc - mann_whitney_auc(scores.tolist(), truth.tolist())))
    auc_ok = worst_auc < 1e-12

    elapsed = time.perf_counter() - start
    ok = chi_ok and lam5_ok and norm_ok and auc_ok
    detail = (
        f"chi_tot dual form worst rel {worst_chi:.1e} (<1e-12); lambda_5 == 1 exactly: {lam5_ok}; "
        f"conditional normalization worst {worst_norm:.1e} (<1e-12); "
        f"AUC vs pairwise statistic worst {worst_auc:.1e} (<1e-12); {elapsed:.1f}s"
    )
    assert record_criterion(7, ok, detail), detail


def test_criterion_8_channel_moments():
    q0, p0 = 2.0, -1.0
    n = 100_000
    settings = [
        (0.0, 0.0, 0.0),
        (20.0, 0.05, 0.0),
        (20.0, 0.05, math.pi / 2),
    ]
    start = time.perf_counter()
    worst = 0.0
    for seed, (distance, xi, phi) in enumerate(settings):
        params = ChannelParams(distance_km=distance, excess_noise=xi, phase_drift=phi)
        out = transmit_batch(np.tile([q0, p0], (n, 1)), params, RandomSource(DEFAULT_SEED + seed))
        root_t = math.sqrt(params.transmittance)
        want_mean_q = root_t * (q0 * math.cos(phi) + p0 * math.sin(phi))
        want_mean_p = root_t * (p0 * math.cos(phi) - q0 * math.sin(phi))
        want_var = params.noise_variance
        worst = max(
            worst,
            abs(out[:, 0].mean() - want_mean_q) / abs(want_mean_q),
            abs(out[:, 1].mean() - want_mean_p) / abs(want_mean_p),
            abs(out[:, 0].var() - want_var) / want_var,
            abs(out[:, 1].var() - want_var) / want_var,
        )
    elapsed = time.perf_counter() - start
    ok = worst < 0.05
    detail = (
        f"worst relative moment error {worst:.4f} (<0.05) over three (T, xi, phi0) "
        f"settings incl. phi0=pi/2 at {n} draws, {elapsed:.1f}s"
    )
    assert record_criterion(8, ok, detail), detail
