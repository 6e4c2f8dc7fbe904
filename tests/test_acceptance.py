"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from roompol import (
    SPEED_OF_LIGHT,
    DistanceCondition,
    PolGain,
    RoomGeometry,
    SimConfig,
    WallMaterial,
    cpr,
    cpr_distance,
    fit,
    mixing_constant,
    mixing_time,
    pds,
    pds_asymptote,
    pds_components,
    pds_components_exact,
    predict,
    reverberation_time,
    simulate_pdp,
    wall_material_from_times,
)
from roompol.cli import main

from _support import (
    BASE, GRID, LAM, MAT, PULSE, ROOM, integrate_cpr, integrate_cpr_distance, make_params,
    split_params, synth_problem, write_config,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    """Exact-bounce mirror-source PDPs vs the exact-count expectation, 1.0 dB, [2 ns, 5T].

    Asserted: the oracle agrees with `pds_components_exact`, the curve it
    estimates, within 1.0 dB over [2 ns, 5T]. Reported next to it: the
    gap to the paper's closed form `pds`, which replaces each image's
    bounce count B by its mean c S tau / 4V. Since B varies across
    directions, E[g^B] > g^E[B] (Jensen), so the oracle lies 1.4-4.1 dB
    off the closed form here. No `pds` can close that gap, because
    criterion 5 pins `pds` at gamma = 0 to the classical exponential,
    which the gamma = 0 oracle misses by 1.3-2.2 dB as well.
    """
    results = []
    for g in (0.4, 0.3, 0.5):
        material = WallMaterial(g=g, gamma=0.04)
        t_rev = reverberation_time(ROOM, material)
        max_delay = math.ceil(5.0 * t_rev / 1e-9) * 1e-9
        cfg = SimConfig(
            n_realizations=100_000, bin_width=1e-9, max_delay=max_delay, rng_seed=20_240
        )
        mu = PolGain.from_split(0.0)
        start = time.monotonic()
        co_sim, cross_sim = simulate_pdp(ROOM, material, mu, mu, LAM, cfg)
        elapsed = time.monotonic() - start
        p_co = split_params(0.0, material)
        p_cross = make_params(mu, mu.swapped(), material=material)
        window = (co_sim.delays >= 2e-9) & (co_sim.delays <= 5.0 * t_rev)
        delays = co_sim.delays[window]
        errors = []
        for model in (pds_components_exact, pds_components):
            for sim, p in ((co_sim, p_co), (cross_sim, p_cross)):
                ref = sum(model(delays, p))
                errors.append(np.max(np.abs(10 * np.log10(sim.values[window] / ref))))
        results.append((g, *errors, elapsed))

    detail = "; ".join(
        f"g={g}: max|co|={ec:.2f} dB, max|cross|={ex:.2f} dB "
        f"(closed form {mc:.2f}/{mx:.2f} dB), {dt:.0f} s"
        for g, ec, ex, mc, mx, dt in results
    )
    runtime_ok = all(dt < 300.0 for *_, dt in results)
    agreement_ok = all(ec <= 1.0 and ex <= 1.0 for _, ec, ex, *_ in results)
    report("1", runtime_ok and agreement_ok, detail)
    assert runtime_ok, detail
    assert agreement_ok, (
        "simulated PDPs deviate from the exact bounce-count expectation "
        "beyond 1.0 dB: " + detail + ". The bracketed closed-form gap is "
        "expected: `pds` uses the mean bounce count, and E[g^B] > g^E[B] "
        "(Jensen); criterion 5 ties `pds` at gamma = 0 to the classical "
        "exponential, so no `pds` can close it. See README, section "
        "'Accuracy of the closed form'."
    )


def test_criterion_2_reported_fit_consistency():
    checks = []
    for room, t_rev, t_mix, two_dp, one_dp in (
        (ROOM, 6.8e-9, 78e-9, 11.47, 11.5),
        (RoomGeometry(6.0, 10.0, 3.0), 12.3e-9, 45e-9, 3.66, 3.7),
    ):
        material = wall_material_from_times(room, t_rev, t_mix)
        value = mixing_constant(material)
        checks.append(
            value == pytest.approx(t_mix / t_rev, rel=1e-12)
            and round(value, 2) == two_dp
            and round(value, 1) == one_dp
        )
    ok = report(
        "2", all(checks),
        "mixing constants 11.47 -> 11.5 and 3.66 -> 3.7 reproduced from "
        "reverberation/mixing time pairs",
    )
    assert ok


def test_criterion_3_synthetic_recovery():
    truth = (0.4, 0.04, 0.02, 1e-11)
    clean = fit(synth_problem(*truth))
    clean_ok = (
        abs(clean.g - truth[0]) / truth[0] < 0.01
        and abs(clean.gamma - truth[1]) / truth[1] < 0.01
        and abs(clean.xi - truth[2]) < 0.005
    )

    g_err, gamma_err = [], []
    for seed in range(10):
        noisy = fit(synth_problem(*truth, db_noise_std=0.5, seed=seed))
        g_err.append(abs(noisy.g - truth[0]) / truth[0])
        gamma_err.append(abs(noisy.gamma - truth[1]) / truth[1])
    noisy_ok = np.median(g_err) < 0.05 and np.median(gamma_err) < 0.05

    ok = report(
        "3", clean_ok and noisy_ok,
        f"noise-free errors g={abs(clean.g - 0.4) / 0.4:.2e}, "
        f"gamma={abs(clean.gamma - 0.04) / 0.04:.2e}, xi={abs(clean.xi - 0.02):.2e}; "
        f"0.5 dB noise medians g={np.median(g_err):.3f}, gamma={np.median(gamma_err):.3f}",
    )
    assert ok


def test_criterion_4_cpr_against_quadrature():
    worst_plain = 0.0
    for g in (0.2, 0.4, 0.6):
        for gamma in (0.01, 0.04, 0.2):
            material = WallMaterial(g=g, gamma=gamma)
            for xi in (0.0, 0.05, 0.25):
                p = split_params(xi, material)
                closed = cpr(p)
                oracle = integrate_cpr(p)
                if math.isinf(oracle):  # no cross power to integrate
                    assert math.isinf(closed)
                    continue
                rel = abs(closed - oracle) / closed
                worst_plain = max(worst_plain, rel)

    worst_cond = 0.0
    p = split_params(0.1)
    for d in (0.5, 1.35, 1.8, 3.3):
        for los in (False, True):
            cond = DistanceCondition(distance=d, los=los)
            oracle = integrate_cpr_distance(p, cond)
            rel = abs(cpr_distance(p, cond) - oracle) / oracle
            worst_cond = max(worst_cond, rel)

    ok = report(
        "4",
        worst_plain < 1e-3 and worst_cond < 5e-3,
        f"closed form vs quadrature: worst {worst_plain:.2e} over the 27-point grid "
        f"(bound 1e-3); conditioned worst {worst_cond:.2e} (bound 5e-3)",
    )
    assert ok


def test_criterion_5_limit_suite():
    tau = np.arange(0.05e-9, 60e-9, 0.05e-9)

    lossless = WallMaterial(g=0.4, gamma=0.0)
    p0 = split_params(0.0, lossless)
    co, cross = pds_components(tau, p0)
    t_rev = reverberation_time(ROOM, lossless)
    classical = (
        SPEED_OF_LIGHT * LAM**2 / ROOM.volume() * np.exp(-tau / t_rev)
    )
    no_leakage_ok = np.all(cross == 0.0) and np.allclose(
        pds(tau, p0), classical, rtol=1e-12, atol=0.0
    )

    # near-complete leakage: the residual gap decays as e^(-tau/T_p) with
    # T_p(1 - 1e-9) ~ 0.34 ns, so the 1e-6 bound holds beyond ~15 T_p;
    # closer to zero delay no gamma < 1 can meet it
    near_one = WallMaterial(g=0.4, gamma=1.0 - 1e-9)
    p1 = split_params(0.0, near_one)
    t_mix = mixing_time(ROOM, near_one)
    tau_late = np.arange(15.0 * t_mix, 60e-9, 0.05e-9)
    gap = np.abs(pds(tau_late, p1) / pds_asymptote(tau_late, p1) - 1.0)
    collapse_ok = np.max(gap) <= 1e-6

    mu_a, mu_b = PolGain(0.7, 0.2), PolGain(0.1, 0.8)
    fwd = make_params(mu_a, mu_b)
    rev = make_params(mu_b, mu_a)
    reciprocity_ok = (
        np.array_equal(pds(tau, fwd), pds(tau, rev)) and cpr(fwd) == cpr(rev)
    )

    ok = report(
        "5",
        no_leakage_ok and collapse_ok and reciprocity_ok,
        f"no-leakage classical recovery exact; near-one leakage max gap "
        f"{np.max(gap):.1e} beyond 15 T_p; reciprocity exact",
    )
    assert ok


def test_criterion_6_asymptote_convergence():
    p = split_params(0.0)
    t_mix = mixing_time(ROOM, MAT)
    tau = np.linspace(5.0 * t_mix, 20.0 * t_mix, 400)
    gap_db = 10.0 * np.log10(pds(tau, p) / pds_asymptote(tau, p))
    ok = report(
        "6", bool(np.all(np.abs(gap_db) <= 0.05)),
        f"max |pds/asymptote| gap {np.max(np.abs(gap_db)):.4f} dB for tau >= 5 T_p",
    )
    assert ok


def test_criterion_7_los_prediction():
    result = fit(synth_problem(0.4, 0.04, 0.02, 1e-11))
    problem = synth_problem(0.4, 0.04, 0.02, 1e-11)
    step = GRID[1] - GRID[0]
    pulse_half = PULSE.half_support()
    bumps = {}
    clean = True
    for d in (1.35, 1.8):
        nlos_co, _ = predict(result, DistanceCondition(d, los=False), problem)
        los_co, _ = predict(result, DistanceCondition(d, los=True), problem)
        diff = los_co.values - nlos_co.values
        near = np.abs(GRID - d / SPEED_OF_LIGHT) <= pulse_half + step
        clean &= bool(np.all(np.abs(diff[~near]) <= 1e-18)) and bool(np.max(diff) > 0)
        bumps[d] = float(np.sum(diff) * step)
    ratio = bumps[1.35] / bumps[1.8]
    expected = (1.8 / 1.35) ** 2
    ratio_ok = abs(ratio / expected - 1.0) < 1e-3
    ok = report(
        "7", clean and ratio_ok,
        f"direct bump confined to the pulse support; weight ratio {ratio:.5f} "
        f"vs (1.8/1.35)^2 = {expected:.5f}",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    config = write_config(tmp_path, BASE + (
        "simulation: {realizations: 2000, seed: 5, bin_width_ns: 1.0, max_delay_ns: 25.0}\n"
    ))
    pairs = {}
    for tag, cmd in (("eval", "eval"), ("sim", "simulate")):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{tag}{i}.csv"
            assert main([cmd, "--config", config, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        pairs[tag] = outs[0] == outs[1]
    ok = report(
        "8", pairs["eval"] and pairs["sim"],
        "eval and seeded simulate outputs are byte-identical across reruns",
    )
    assert ok
