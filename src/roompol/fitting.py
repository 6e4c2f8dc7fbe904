"""Nonlinear least-squares recovery of wall and antenna parameters from PDPs.

Given a known room, wavelength, sounding pulse, and link condition, the
fitter adjusts the per-bounce gain g, cross-polar leakage gamma, antenna
split xi, and noise floor so that the modeled observed traces match the
measured co- and cross-polarized average PDPs jointly, in dB. The search
runs in an unconstrained space: g, gamma, xi through a scaled logit over
their bound intervals and the noise power through a log transform.

The least-squares search is `_trf`, a numpy port of scipy's trust-region
least squares. Only `method="simplex"` imports scipy, when it runs, so
importing this module or running a default fit loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import norm, svd

from .measurement import ObservationParams, PdpTrace, PulseShape, from_db, observed_pds, to_db
from .model import (
    DistanceCondition,
    PdsParams,
    PolGain,
    RoomGeometry,
    WallMaterial,
    _require_int,
    _require_positive,
    channel_pair,
)

# Fit defaults, shared by `FitProblem` and the run config's [fit] section.
# The first method is the default one.
METHODS = ("least_squares", "simplex")
DEFAULT_GUESS = (0.5, 0.05, 0.05, None)
DEFAULT_BOUNDS = ((1e-6, 1.0 - 1e-6),) * 3
DEFAULT_MAX_ITERATIONS = 2000
# Convergence policy: stop on relative objective decrease below 1e-10 or
# step norm below 1e-12, within the evaluation budget.
_FTOL = 1e-10
_XTOL = 1e-12
_GTOL = 1e-14


@dataclass
class FitProblem:
    """Joint co/cross fitting task. Traces must be dB on one shared grid.

    `max_iterations` caps the trial points of least squares (its Jacobian
    evaluations not counted) and is `maxiter` for each of simplex's two
    Nelder-Mead runs.
    """

    room: RoomGeometry
    wavelength: float
    cond: DistanceCondition | None
    pulse: PulseShape
    co_trace: PdpTrace
    cross_trace: PdpTrace
    fit_window: tuple[float, float] | None = None
    initial_guess: tuple[float, float, float, float | None] = DEFAULT_GUESS
    bounds: tuple[tuple[float, float], ...] = DEFAULT_BOUNDS
    method: str = METHODS[0]
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    # the grid samples inside fit_window (all of them without one)
    window_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _require_positive("wavelength", self.wavelength)
        for name, tr in (("co", self.co_trace), ("cross", self.cross_trace)):
            if tr.scale != "db":
                raise ValueError(f"{name} trace must be in dB, got scale {tr.scale!r}")
        if not np.array_equal(self.co_trace.delays, self.cross_trace.delays):
            raise ValueError("co and cross traces must share one delay grid")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # `_trf` stops when its evaluation count equals the budget
        _require_int("max_iterations", self.max_iterations, 1)
        if len(self.initial_guess) != 4:
            raise ValueError("initial_guess must give (g, gamma, xi, noise power or None)")
        if self.initial_guess[3] is not None:
            _require_positive("initial noise power", self.initial_guess[3])
        if len(self.bounds) != 3 or any(len(b) != 2 for b in self.bounds):
            raise ValueError("bounds must give (low, high) for each of g, gamma, xi")
        for name, (lo, hi) in zip(("g", "gamma", "xi"), self.bounds):
            if not (0.0 < lo < hi < 1.0):
                raise ValueError(f"bounds for {name} must satisfy 0 < low < high < 1")
        grid = self.co_trace.delays
        self.window_mask = np.ones(grid.size, dtype=bool)
        if self.fit_window is not None:
            t0, t1 = self.fit_window
            if t0 >= t1 or t1 < grid[0] or t0 > grid[-1]:
                raise ValueError(f"fit window {self.fit_window} does not overlap the grid")
            eps = 1e-9 * self.co_trace.spacing
            self.window_mask = (grid >= t0 - eps) & (grid <= t1 + eps)
        # gated traces may hold -inf (zero power) outside the window, before
        # the direct delay; `PdpTrace` has rejected NaN and +inf already
        for name, tr in (("co", self.co_trace), ("cross", self.cross_trace)):
            if np.any(tr.values[self.window_mask] == -np.inf):
                raise ValueError(
                    f"{name} trace contains non-finite dB values inside the fit window"
                )


@dataclass
class FitResult:
    """Fitted parameters and diagnostics; `split_params` gives the model they define.

    `iterations` counts residual evaluations, the 8 of every central-difference
    Jacobian included.
    """

    g: float
    gamma: float
    xi: float
    noise_power: float
    residual_rms_db: float
    iterations: int
    converged: bool
    weakly_identified: bool
    objective_history: np.ndarray


def split_params(problem: FitProblem, g: float, gamma: float, xi: float) -> PdsParams:
    """Co-channel parameters for wall gain g, leakage gamma and antenna split xi.

    Both antennas take the split gain [1 - xi, xi]; `channel_pair` gives the
    cross channel from it.
    """
    mu = PolGain.from_split(xi)
    return PdsParams(
        room=problem.room,
        material=WallMaterial(g=g, gamma=gamma),
        mu_t=mu,
        mu_r=mu,
        wavelength=problem.wavelength,
    )


def _model_traces(
    params, problem: FitProblem, cond: DistanceCondition | None
) -> tuple[PdpTrace, PdpTrace]:
    g, gamma, xi, noise = params
    obs = ObservationParams(pulse=problem.pulse, noise_power=noise)
    grid = problem.co_trace.delays
    co, cross = (
        observed_pds(grid, p, cond, obs) for p in channel_pair(split_params(problem, g, gamma, xi))
    )
    return co, cross


def residual(params, problem: FitProblem) -> np.ndarray:
    """Stacked dB residuals (model minus measured) over the fit window.

    `params` is (g, gamma, xi, noise_power); each of the first three must
    lie inside its bound interval and the noise power must be positive.
    """
    g, gamma, xi, noise = params
    for name, value, (lo, hi) in zip(("g", "gamma", "xi"), (g, gamma, xi), problem.bounds):
        if not lo <= value <= hi:
            raise ValueError(f"parameter {name}={value} outside bounds ({lo}, {hi})")
    _require_positive("noise power", noise)
    mask = problem.window_mask
    co, cross = _model_traces(params, problem, problem.cond)
    res_co = to_db(co.values[mask]) - problem.co_trace.values[mask]
    res_cross = to_db(cross.values[mask]) - problem.cross_trace.values[mask]
    return np.concatenate([res_co, res_cross])


def estimate_noise_floor(problem: FitProblem) -> float:
    """Median linear power over the last 10% of both measured traces.

    Clamped away from zero so the log-space start stays finite even for
    noise-free synthetic inputs. The median is np.median's, taken by
    partition: np.median's NaN check imports numpy.ma, 6.1-6.9 ms in a fresh
    process (`BENCH_5.json`).
    """
    n = problem.co_trace.delays.size
    tail = max(1, int(round(0.1 * n)))
    pooled = np.concatenate(
        [problem.co_trace.values[-tail:], problem.cross_trace.values[-tail:]]
    )
    power = from_db(pooled)
    mid = power.size // 2  # pooled holds 2 * tail values, so the size is even
    lo, hi = np.partition(power, (mid - 1, mid))[mid - 1 : mid + 1]
    return max(float((lo + hi) / 2), 1e-30)


def _logit(x: float) -> float:
    # scipy.special.logit's formula, which keeps its precision near 1/2
    if 0.3 <= x <= 0.65:
        return math.log1p(2.0 * (x - 0.5)) - math.log1p(-2.0 * (x - 0.5))
    return math.log(x / (1.0 - x))


def _to_internal(params, bounds) -> np.ndarray:
    u = [_logit((v - lo) / (hi - lo)) for v, (lo, hi) in zip(params[:3], bounds)]
    return np.array(u + [math.log(params[3])])


def _from_internal(u, bounds) -> tuple[float, float, float, float]:
    # scipy.special.expit is 1 / (1 + exp(-u)); past exp's range it is 0 to 1e-308
    expit = [1.0 / (1.0 + math.exp(min(-ui, 709.0))) for ui in u[:3]]
    # as expit rounds to 1, lo + (hi - lo) can round above hi
    vals = [min(hi, lo + (hi - lo) * e) for e, (lo, hi) in zip(expit, bounds)]
    return (*vals, math.exp(u[3]))


def _trust_region_step(m, uf, s, V, Delta, alpha):
    """Step minimizing |J p + f| over |p| <= Delta from J's SVD (More 1977), and
    the Levenberg-Marquardt parameter alpha that seeds the next call."""

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = s[-1] > np.finfo(float).eps * m * s[0]  # `fit` has m >= n residuals
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (Delta / norm(p)), alpha  # onto the boundary, never outside it


def _trf(fun, jac, x0: np.ndarray, max_nfev: int) -> tuple[np.ndarray, bool]:
    """Unbounded trust-region least squares: the solution and whether a gradient,
    cost or step tolerance was met before the evaluation budget ran out.

    A port of the one path `scipy.optimize.least_squares(method="trf")` takes
    here: `trf_no_bounds` with the exact solver, linear loss and unit x_scale,
    and `solve_lsq_trust_region` (scipy 1.17.1, `optimize/_lsq/{trf,common}.py`,
    BSD-3-Clause). As in scipy, a trial point equal to the last evaluated one
    reuses its residuals.
    """
    last = (x0, fun(x0))
    if not np.all(np.isfinite(last[1])):
        raise ValueError("Residuals are not finite in the initial point.")
    x, f, J = x0, last[1], jac(x0)
    cost, g = 0.5 * np.dot(f, f), J.T.dot(f)
    Delta = norm(x0) or 1.0
    nfev, alpha, converged = 1, 0.0, False
    while True:
        converged = converged or norm(g, ord=np.inf) < _GTOL
        if converged or nfev == max_nfev:
            return x, converged
        U, s, Vt = svd(J, full_matrices=False)
        uf = U.T.dot(f)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_region_step(f.size, uf, s, Vt.T, Delta, alpha)
            Js = J.dot(step)
            predicted_reduction = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            if not np.array_equal(x_new, last[0]):
                last = (x_new, fun(x_new))
            f_new = last[1]
            nfev += 1
            step_norm = norm(step)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # scipy's update_tr_radius and check_termination
            ratio = (actual_reduction / predicted_reduction if predicted_reduction > 0
                     else float(predicted_reduction == actual_reduction == 0))
            Delta_new = (0.25 * step_norm if ratio < 0.25 else
                         2.0 * Delta if ratio > 0.75 and step_norm > 0.95 * Delta else Delta)
            ftol_met = actual_reduction < _FTOL * cost and ratio > 0.25
            if ftol_met or step_norm < _XTOL * (_XTOL + norm(x)):
                converged = True
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T.dot(f)


def fit(problem: FitProblem) -> FitResult:
    """Minimize the summed squared dB residuals of both channels.

    Runs a derivative-based least-squares search (central finite
    differences, relative step 1e-6) on the transformed parameters, or a
    Nelder-Mead simplex when problem.method is "simplex". Non-convergence
    within the iteration budget is reported through the `converged` flag;
    a result is returned either way.
    """
    n_window = int(problem.window_mask.sum())
    if 2 * n_window < 4:
        raise ValueError(
            f"fit window holds {n_window} samples per channel; "
            "need at least as many residuals as parameters"
        )

    floor = estimate_noise_floor(problem)
    g0, gamma0, xi0, noise0 = problem.initial_guess
    if noise0 is None:
        noise0 = floor
    start = []
    for value, (lo, hi) in zip((g0, gamma0, xi0), problem.bounds):
        span = hi - lo
        start.append(min(max(value, lo + 1e-9 * span), hi - 1e-9 * span))
    start.append(noise0)
    u0 = _to_internal(start, problem.bounds)

    history: list[float] = []

    def residual_u(u: np.ndarray) -> np.ndarray:
        r = residual(_from_internal(u, problem.bounds), problem)
        history.append(float(np.dot(r, r)))
        return r

    def jacobian_u(u: np.ndarray) -> np.ndarray:
        # central differences with step 1e-6 relative to the coordinate
        # scale; a bare x * step would collapse to zero for mid-interval
        # starts whose logit is ~0
        cols = []
        for i in range(u.size):
            h = 1e-6 * max(1.0, abs(u[i]))
            e = np.zeros_like(u)
            e[i] = h
            cols.append((residual_u(u + e) - residual_u(u - e)) / (2.0 * h))
        return np.stack(cols, axis=1)

    if problem.method == "least_squares":
        u_best, converged = _trf(residual_u, jacobian_u, u0, problem.max_iterations)
    else:
        from scipy.optimize import minimize

        # the default simplex is scaled multiplicatively from x0, which
        # degenerates for coordinates whose logit is ~0; build an explicit
        # spread and restart once to escape simplex collapse
        objective = lambda u: float(np.sum(residual_u(u) ** 2))
        x = u0
        converged = False
        for _ in range(2):
            steps = np.maximum(0.25, 0.05 * np.abs(x))
            simplex = np.vstack([x, x + np.diag(steps)])
            opt = minimize(
                objective,
                x,
                method="Nelder-Mead",
                options=dict(
                    maxiter=problem.max_iterations,
                    xatol=_XTOL,
                    fatol=_FTOL,
                    adaptive=True,
                    initial_simplex=simplex,
                ),
            )
            x = opt.x
            converged = bool(opt.success)
        u_best = x

    g, gamma, xi, noise = _from_internal(u_best, problem.bounds)
    # both channel traces are exactly invariant under xi -> 1 - xi, so the
    # two mirror solutions are indistinguishable; report the canonical one
    if xi > 0.5:
        folded = 1.0 - xi
        lo, hi = problem.bounds[2]
        if lo <= folded <= hi:
            xi = folded
    final_res = residual((g, gamma, xi, noise), problem)

    cross_peak = float(np.max(problem.cross_trace.values[problem.window_mask]))
    weakly_identified = bool(cross_peak < to_db(floor) + 3.0)

    return FitResult(
        g=g,
        gamma=gamma,
        xi=xi,
        noise_power=noise,
        residual_rms_db=float(np.sqrt(np.mean(final_res**2))),
        iterations=len(history),
        converged=converged,
        weakly_identified=weakly_identified,
        objective_history=np.array(history),
    )


def predict(
    result: FitResult, cond: DistanceCondition | None, problem: FitProblem
) -> tuple[PdpTrace, PdpTrace]:
    """Model observed traces at the fitted parameters, noise floor included,
    under a new link condition. Returns linear (co, cross) traces on the
    problem grid.
    """
    params = (result.g, result.gamma, result.xi, result.noise_power)
    return _model_traces(params, problem, cond)
