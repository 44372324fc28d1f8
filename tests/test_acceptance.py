"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The slowest piece is
the desk-scale comparison study (criterion 9), which is shared with the
determinism check (criterion 10) via a module-scoped fixture and re-run
once from scratch.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from depthnorm import (
    ExpressionMatrix,
    METHOD_FDN_BW,
    METHOD_FDN_MP,
    METHOD_RMA,
    ClassPartition,
    ReferenceCurve,
    SimulationConfig,
    TukeyCalibration,
    calibrate_g,
    component_wise_median,
    deepest_curve,
    detect_outliers,
    extract_borders,
    median_polish,
    pairwise_distances,
    quantile_normalize_full,
    robust_iqr,
    run_grid,
    two_sample_ttest,
)

from oracles import borders_oracle, tukey_fence_flags_extremes

TEN_POINT_SAMPLE = [1.3, 2.1, 2.8, 2.9, 3.2, 3.9, 4.1, 4.8, 4.9, 5.3]

CAL_SETTINGS = dict(n_features=2000, replicates=100, seed=1729)

STUDY_CFG = SimulationConfig(n_datasets=20, seed=1729)
STUDY_DELTAS = (0.0, 0.25, 0.5, 1.0, 2.0)
STUDY_THREADS = 8


def scalar_matrix(points):
    return ExpressionMatrix(np.array([points], dtype=float))


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run each kernel once outside the timed sections
    m = scalar_matrix([0.0, 1.0, 2.0, 5.0])
    extract_borders(pairwise_distances(m))
    median_polish(np.arange(6.0).reshape(2, 3))
    from depthnorm import biweight_location

    biweight_location([1.0, 2.0, 9.0])


@pytest.fixture(scope="module")
def study():
    t0 = time.perf_counter()
    report = run_grid(
        STUDY_CFG, dfs=[10.0], deltas=STUDY_DELTAS, threads=STUDY_THREADS
    )
    return report, time.perf_counter() - t0


def test_criterion_1_worked_example_exactness():
    m = scalar_matrix(TEN_POINT_SAMPLE)
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        bs = extract_borders(pairwise_distances(m))
        iqr = robust_iqr(bs)
        elapsed.append(time.perf_counter() - t0)
    assert bs.distances() == pytest.approx([4.0, 2.8, 2.0, 1.2, 0.7], rel=1e-12)
    assert iqr == 2.0
    best = min(elapsed)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print(f"\nACCEPTANCE 1 worked-example exactness: PASS ({best * 1e6:.0f} us)")


def test_criterion_2_brute_force_depth_oracle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = int(rng.integers(1, 51))
        m = ExpressionMatrix(rng.normal(size=(g, n)))
        dm = pairwise_distances(m)
        got = [(b.members, b.distance) for b in extract_borders(dm).borders]
        assert got == borders_oracle(dm.d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 brute-force depth oracle (200 matrices): PASS ({elapsed:.2f} s)")


def test_criterion_3_quantile_normalization_invariants():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    for _ in range(100):
        g = int(rng.integers(5, 40))
        n = int(rng.integers(2, 8))
        values = rng.normal(size=(g, n))  # continuous draws: tie-free a.s.
        m = ExpressionMatrix(values)
        ref = ReferenceCurve(np.sort(rng.normal(size=g)))
        out = quantile_normalize_full(m, ref)
        for j in range(n):
            assert np.array_equal(np.sort(out.values[:, j]), ref.values)
            assert np.array_equal(np.argsort(out.values[:, j]), np.argsort(values[:, j]))
        twice = quantile_normalize_full(out, ref)
        assert np.array_equal(twice.values, out.values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 3 quantile-normalization invariants: PASS ({elapsed:.2f} s)")


def test_criterion_4_component_wise_median_pathology():
    points = np.array(
        [[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 2, 5], [3, 1, 5]], dtype=float
    )
    m = ExpressionMatrix(points.T)
    med = component_wise_median(m).values
    assert np.array_equal(med, [1.0, 1.0, 0.0])

    # separating hyperplane: maximize w.med - t with w.v_i <= t, |w| <= 1;
    # a positive optimum certifies med lies strictly outside the hull
    c = np.concatenate([-med, [1.0]])
    a_ub = np.hstack([points, -np.ones((5, 1))])
    b_ub = np.zeros(5)
    bounds = [(-1, 1)] * 3 + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    margin = -res.fun
    assert margin > 1e-9, f"median separation margin {margin}"

    ref = deepest_curve(m)
    member = [np.array_equal(ref.values, points[i]) for i in range(5)]
    assert any(member)
    print(f"\nACCEPTANCE 4 component-wise-median pathology: PASS (margin {margin:.3f})")


def test_criterion_5_tukey_reduction():
    rng = np.random.default_rng(505)
    checked = 0
    for _ in range(50):
        half = rng.uniform(0.05, 10.0, size=int(rng.integers(2, 16)))
        points = np.concatenate([-half, half])
        g_factor = float(rng.uniform(1.0, 3.0))
        (report,) = detect_outliers(scalar_matrix(list(points)), TukeyCalibration.fixed(g_factor))
        ours = len(report.flagged_pairs) >= 1
        oracle = tukey_fence_flags_extremes(points, (g_factor - 1.0) / 2.0)
        assert ours == oracle
        checked += 1
    assert checked == 50
    print("\nACCEPTANCE 5 Tukey fence reduction (50 symmetric samples): PASS")


def test_criterion_6_calibration_band():
    t0 = time.perf_counter()
    cal = calibrate_g(cov=np.eye(12), threads=1, **CAL_SETTINGS)
    single = time.perf_counter() - t0
    assert 1.0 <= cal.g_factor <= 1.6, f"g_factor {cal.g_factor}"
    assert single < 60.0

    t0 = time.perf_counter()
    cal8 = calibrate_g(cov=np.eye(12), threads=8, **CAL_SETTINGS)
    threaded = time.perf_counter() - t0
    assert cal8 == cal
    assert threaded < 15.0
    print(
        f"\nACCEPTANCE 6 calibration band: PASS (g={cal.g_factor:.3f}, "
        f"{single:.2f} s single, {threaded:.2f} s at 8 threads)"
    )


def test_criterion_7_median_polish():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    for _ in range(100):
        block = rng.normal(size=(11, 12))
        fit = median_polish(block)
        recon = fit.overall + fit.row_effects[:, None] + fit.col_effects[None, :] + fit.residuals
        assert np.abs(recon - block).max() < 1e-9
    # integer effects keep the sweep arithmetic exact, so residuals hit 0
    r = rng.integers(-9, 10, size=11).astype(float)
    c = rng.integers(-9, 10, size=12).astype(float)
    additive = median_polish(r[:, None] + c[None, :])
    assert np.array_equal(additive.residuals, np.zeros((11, 12)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 median polish: PASS ({elapsed:.2f} s)")


def test_criterion_8_null_testing_calibration():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    gm = ExpressionMatrix(rng.standard_normal((10_000, 12)))
    tr = two_sample_ttest(gm, ClassPartition((1,) * 6 + (2,) * 6))
    rate = float((tr.p_value < 0.05).mean())
    elapsed = time.perf_counter() - t0
    assert abs(rate - 0.05) <= 0.01, f"rejection rate {rate}"
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 8 null-calibration of testing: PASS (rate {rate:.4f}, {elapsed:.2f} s)")


def test_criterion_9_desk_scale_study_structure(study):
    report, elapsed = study
    assert elapsed < 600.0, f"study took {elapsed:.0f} s"
    methods = (METHOD_RMA, METHOD_FDN_MP, METHOD_FDN_BW)

    for method in methods:
        null_power = report.cell(10.0, 0.0, method).power
        assert 3.0 <= null_power <= 8.0, f"{method} power at delta 0: {null_power}"

        powers = [report.cell(10.0, d, method).power for d in STUDY_DELTAS]
        for lo, hi in zip(powers, powers[1:]):
            assert hi >= lo - 1.5, f"{method} power not monotone: {powers}"

        top_power = report.cell(10.0, 2.0, method).power
        assert top_power >= 98.0, f"{method} power at delta 2: {top_power}"

    for d in STUDY_DELTAS:
        rma = report.cell(10.0, d, METHOD_RMA).power
        fdn = report.cell(10.0, d, METHOD_FDN_MP).power
        assert abs(rma - fdn) <= 5.0, f"delta {d}: RMA {rma} vs FDN {fdn}"
    print(f"\nACCEPTANCE 9 desk-scale study structure: PASS ({elapsed:.0f} s at 8 threads)")


def test_criterion_10_determinism(study):
    report, _ = study
    cal_a = calibrate_g(cov=np.eye(12), threads=1, **CAL_SETTINGS)
    cal_b = calibrate_g(cov=np.eye(12), threads=8, **CAL_SETTINGS)
    assert cal_a.to_json() == cal_b.to_json()

    rerun = run_grid(STUDY_CFG, dfs=[10.0], deltas=STUDY_DELTAS, threads=STUDY_THREADS)
    assert rerun.to_csv() == report.to_csv()
    print("\nACCEPTANCE 10 determinism: PASS (byte-identical calibration and study reports)")
