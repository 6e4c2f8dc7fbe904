"""fit_campaign: joint co/cross dB fits of synthetic traces, each with a predict.

Traces are `observed_pds` outputs on a 0.5 ns grid over 300 ns, clean or
with 0.5 dB gaussian noise, NLOS or LOS (direct-path bump), boxcar or
gaussian pulse. One fit in five is a Nelder-Mead simplex fit (~1400
residual evaluations), the rest least squares (~65-70 evaluations), so a
Jacobian change moves the least-squares fits and leaves the simplex fits as
the no-change control. The mirror layer and the import are not touched.

Truths are drawn within +-10% of the acceptance suite's criterion-3 truth,
from its start point. Wider truths, and about 1% of clean simplex fits even
here, end at the xi lower bound (XI_STALL_CASES), which would make runs fail
on a known fitter defect instead of measuring speed; the traced run counts
those cases as `fitting.xi_bound_stalls`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from roompol import (
    DistanceCondition,
    FitProblem,
    ObservationParams,
    PdsParams,
    PolGain,
    PulseShape,
    RoomGeometry,
    WallMaterial,
    cpr_distance,
    db_linear_convert,
    fit,
    observed_pds,
    pds_components,
    predict,
    residual,
)

from harness import Op, Tracer, median, per_call, percentile

NAME = "fit_campaign"
ROOM = RoomGeometry(3.0, 4.0, 3.0)
WAVELENGTH = 5e-3
GRID = np.arange(600) * 0.5e-9
BANDWIDTH = 0.5e9
DISTANCE = 1.8
NOISE_POWER = 1e-11
DB_NOISE_STD = 0.5
TRUTH = (0.4, 0.04, 0.02)
INITIAL_GUESS = (0.5, 0.1, 0.05, 1e-10)
# One round: least squares on every (los, pulse, noisy) combination, plus two
# simplex fits. The simplex fits are on noisy traces: about 1% of clean ones
# stop at the xi lower bound (see XI_STALL_CASES).
ROUND = [
    (los, kind, noisy, "least_squares")
    for los in (False, True)
    for kind in ("boxcar", "gaussian")
    for noisy in (False, True)
] + [(False, "boxcar", True, "simplex"), (True, "gaussian", True, "simplex")]
# Clean NLOS boxcar fits from INITIAL_GUESS that end at xi = 1e-6, far from
# the truth: a fitter defect. The traced run counts how many still do.
XI_STALL_CASES = (
    ((0.3332, 0.033, 0.1839), "least_squares"),
    ((0.37307348503662285, 0.039672831650308715, 0.02099831090034682), "simplex"),
    ((0.3868770301413414, 0.03995593717028821, 0.021566259951982927), "simplex"),
)
# criterion-3 tolerances
CLEAN_REL_TOL = 0.01
CLEAN_XI_TOL = 0.005
NOISY_MEDIAN_REL_TOL = 0.05


@dataclass
class Task:
    problem: FitProblem
    truth: tuple[float, float, float]
    noisy: bool
    new_cond: DistanceCondition


def channel_params(material: WallMaterial, xi: float) -> tuple[PdsParams, PdsParams]:
    """Co channel with equal gains; the cross channel swaps the receive gains."""
    mu = PolGain.from_split(xi)
    return tuple(
        PdsParams(room=ROOM, material=material, mu_t=mu, mu_r=mu_r, wavelength=WAVELENGTH)
        for mu_r in (mu, mu.swapped())
    )


def make_problem(truth, los, kind, method, rng=None) -> FitProblem:
    """Observed co/cross dB traces at `truth`; `rng` adds the dB noise."""
    cond = DistanceCondition(distance=DISTANCE, los=los)
    pulse = PulseShape(kind, BANDWIDTH)
    obs = ObservationParams(pulse=pulse, noise_power=NOISE_POWER)
    traces = []
    for p in channel_params(WallMaterial(g=truth[0], gamma=truth[1]), truth[2]):
        trace = db_linear_convert(observed_pds(GRID, p, cond, obs), "db")
        if rng is not None:
            trace.values = trace.values + rng.normal(0.0, DB_NOISE_STD, GRID.size)
        traces.append(trace)
    return FitProblem(
        room=ROOM, wavelength=WAVELENGTH, cond=cond, pulse=pulse,
        co_trace=traces[0], cross_trace=traces[1],
        initial_guess=INITIAL_GUESS, method=method,
    )


def make_task(rng, los, kind, noisy, method) -> Task:
    truth = tuple(t * rng.uniform(0.9, 1.1) for t in TRUTH)
    problem = make_problem(truth, los, kind, method, rng if noisy else None)
    new_cond = DistanceCondition(distance=rng.uniform(0.5, 3.3), los=not los)
    return Task(problem, truth, noisy, new_cond)


def make_round(seed: int, index: int) -> list[Task]:
    rng = np.random.default_rng([seed, index])
    return [make_task(rng, *spec) for spec in ROUND]


def recovery_errors(result, truth) -> tuple[float, float, float]:
    g, gamma, xi = truth
    return abs(result.g - g) / g, abs(result.gamma - gamma) / gamma, abs(result.xi - xi)


def recovered(result, truth) -> bool:
    g_err, gamma_err, xi_err = recovery_errors(result, truth)
    return g_err < CLEAN_REL_TOL and gamma_err < CLEAN_REL_TOL and xi_err < CLEAN_XI_TOL


def check_fit(task: Task, result, predicted) -> str | None:
    if not result.converged:
        return "fit did not converge"
    if not task.noisy and not recovered(result, task.truth):
        errors = ", ".join(f"{e:.2e}" for e in recovery_errors(result, task.truth))
        return f"clean fit missed truth: g, gamma, xi errors {errors}"
    for trace in predicted:
        if trace.values.shape != GRID.shape or not np.all(np.isfinite(trace.values)):
            return "predict returned a malformed trace"
    return None


@dataclass
class State:
    seed: int


def setup(seed: int, workdir) -> State:
    make_round(seed, 0)
    # warm-up at the fixed truth, so set-up cost does not depend on the seed
    problem = make_problem(TRUTH, False, "boxcar", "least_squares")
    predict(fit(problem), DistanceCondition(3.3, los=True), problem)
    return State(seed)


def run_pass(state: State, tracer: Tracer, index: int) -> list[Op]:
    with tracer.span("bench.generate", op=index):
        tasks = make_round(state.seed, index)
    ops = []
    for task in tasks:
        t0 = time.perf_counter()
        with tracer.span("fitting.fit", op=index):
            result = fit(task.problem)
        seconds = time.perf_counter() - t0
        with tracer.span("fitting.predict", op=index):
            predicted = predict(result, task.new_cond, task.problem)
        g_err, gamma_err, _ = recovery_errors(result, task.truth)
        ops.append(Op(
            task.problem.method, seconds, 1, check_fit(task, result, predicted),
            dict(noisy=task.noisy, g_err=g_err, gamma_err=gamma_err),
        ))
    return ops


def run_checks(state: State, ops: list[Op]) -> list[tuple[str, str | None]]:
    noisy = [op.info for op in ops if op.info["noisy"]]
    g_med = median([i["g_err"] for i in noisy])
    gamma_med = median([i["gamma_err"] for i in noisy])
    error = None
    if not (g_med < NOISY_MEDIAN_REL_TOL and gamma_med < NOISY_MEDIAN_REL_TOL):
        error = f"median error g {g_med:.3f}, gamma {gamma_med:.3f} (limit 0.05)"
    return [("noisy_median_error", error)]


def named_metrics(ops: list[Op], timed_wall: float) -> list[tuple[str, float, str]]:
    fits = [op.seconds for op in ops]
    return [
        ("fits_per_s", len(fits) / timed_wall, "1/s"),
        ("fit_p50_ms", median(fits) * 1e3, "ms"),
        ("fit_p90_ms", percentile(fits, 90) * 1e3, "ms"),
    ]


def probe(tracer: Tracer, seed: int, smoke: bool, workdir) -> tuple[dict, list]:
    """Per-layer numbers of model, measurement and fitting, inside spans.

    Inputs are fixed at TRUTH, so the evaluation counts repeat exactly.
    """
    repeats = 2 if smoke else 5
    metrics: dict = {}
    checks = []
    p_co, _ = channel_params(WallMaterial(g=TRUTH[0], gamma=TRUTH[1]), TRUTH[2])
    nlos = DistanceCondition(distance=DISTANCE, los=False)

    metrics["model.pds_components_us"] = (
        per_call(tracer, "model.pds_components", lambda: pds_components(GRID, p_co),
                 100, repeats) * 1e6, "us")
    metrics["model.cpr_distance_us"] = (
        per_call(tracer, "model.cpr_distance", lambda: cpr_distance(p_co, nlos),
                 1000, repeats) * 1e6, "us")

    tasks = {}
    for los in (False, True):
        for kind in ("boxcar", "gaussian"):
            label = f"{'los' if los else 'nlos'}_{kind}"
            cond = DistanceCondition(distance=DISTANCE, los=los)
            obs = ObservationParams(PulseShape(kind, BANDWIDTH), NOISE_POWER)
            metrics[f"measurement.observed_pds_us.{label}"] = (
                per_call(tracer, f"measurement.observed_pds.{label}",
                         lambda: observed_pds(GRID, p_co, cond, obs), 20, repeats) * 1e6, "us")
            problem = make_problem(TRUTH, los, kind, "least_squares")
            tasks[label] = Task(problem, TRUTH, False, DistanceCondition(3.3, los=not los))

    base = tasks["nlos_boxcar"]
    at_truth = (*TRUTH, NOISE_POWER)
    residual_s = per_call(tracer, "fitting.residual",
                          lambda: residual(at_truth, base.problem), 20, repeats)
    metrics["fitting.residual_us"] = (residual_s * 1e6, "us")

    results, overheads = {}, []
    for label, task in tasks.items():
        with tracer.span(f"fitting.fit.{label}"):
            results[label] = fit(task.problem)
        checks.append((f"fit.{label}", check_fit(task, results[label], [])))
        fit_s = tracer.durations(f"fitting.fit.{label}")[-1]
        overheads.append(fit_s - results[label].iterations * residual_s)
    metrics["fitting.predict_us"] = (
        per_call(tracer, "fitting.predict",
                 lambda: predict(results["nlos_boxcar"], base.new_cond, base.problem),
                 10, repeats) * 1e6, "us")

    simplex = Task(make_problem(TRUTH, False, "boxcar", "simplex"), TRUTH, False, nlos)
    with tracer.span("fitting.fit.simplex"):
        simplex_result = fit(simplex.problem)
    checks.append(("fit.simplex", check_fit(simplex, simplex_result, [])))
    metrics["fitting.residual_evals_per_fit.least_squares"] = (
        median([r.iterations for r in results.values()]), "count")
    metrics["fitting.residual_evals_per_fit.simplex"] = (simplex_result.iterations, "count")
    # computed, not a span: fit time minus evaluations x residual time
    metrics["fitting.fit_overhead_ms"] = (median(overheads) * 1e3, "ms")

    stalls = 0
    for truth, method in XI_STALL_CASES:
        with tracer.span("fitting.fit.xi_stall_case"):
            result = fit(make_problem(truth, False, "boxcar", method))
        stalls += not recovered(result, truth)
    metrics["fitting.xi_bound_stalls"] = (stalls, "count")
    return metrics, checks
