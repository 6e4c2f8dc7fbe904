import math

import numpy as np
import numpy.testing as npt
import pytest

from roompol import (
    SPEED_OF_LIGHT,
    DistanceCondition,
    FitProblem,
    ObservationParams,
    PdpTrace,
    PdsParams,
    PolGain,
    PulseShape,
    RoomGeometry,
    WallMaterial,
    channel_pair,
    db_linear_convert,
    fit,
    observed_pds,
    predict,
    residual,
    reverberation_time,
)
from roompol import fitting
from roompol.fitting import _from_internal, _to_internal

ROOM = RoomGeometry(3.0, 4.0, 3.0)
LAM = 5e-3
PULSE = PulseShape(kind="boxcar", bandwidth=0.5e9)
COND = DistanceCondition(distance=1.8, los=False)
GRID = np.arange(0.0, 300e-9, 0.5e-9)


def synth_traces(g, gamma, xi, noise, cond=COND, grid=GRID, db_noise_std=0.0, seed=0,
                 pulse=PULSE):
    """Generate observed co/cross channel traces in dB at the given truth."""
    material = WallMaterial(g=g, gamma=gamma)
    mu = PolGain.from_split(xi)
    obs = ObservationParams(pulse=pulse, noise_power=noise)
    traces = []
    rng = np.random.default_rng(seed)
    co = PdsParams(room=ROOM, material=material, mu_t=mu, mu_r=mu, wavelength=LAM)
    for p in channel_pair(co):
        trace = db_linear_convert(observed_pds(grid, p, cond, obs), "db")
        if db_noise_std > 0:
            trace = PdpTrace(
                trace.delays, trace.values + rng.normal(0.0, db_noise_std, grid.size), "db"
            )
        traces.append(trace)
    return traces


def synth_problem(g=0.4, gamma=0.04, xi=0.02, noise=1e-11, cond=COND,
                  db_noise_std=0.0, seed=0, pulse=PULSE, **problem_kw):
    co, cross = synth_traces(g, gamma, xi, noise, cond=cond,
                             db_noise_std=db_noise_std, seed=seed, pulse=pulse)
    problem_kw.setdefault("initial_guess", (0.5, 0.1, 0.05, 1e-10))
    return FitProblem(
        room=ROOM, wavelength=LAM, cond=cond, pulse=pulse,
        co_trace=co, cross_trace=cross, **problem_kw,
    )


class TestProblemValidation:
    def test_rejects_linear_traces(self):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        linear = db_linear_convert(co, "linear")
        with pytest.raises(ValueError, match="dB"):
            FitProblem(ROOM, LAM, COND, PULSE, linear, cross)

    def test_rejects_mismatched_grids(self):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        shifted = PdpTrace(cross.delays + 1e-9, cross.values, "db")
        with pytest.raises(ValueError, match="share one delay grid"):
            FitProblem(ROOM, LAM, COND, PULSE, co, shifted)

    def test_rejects_degenerate_window(self):
        problem = synth_problem(fit_window=(10e-9, 10.4e-9))
        with pytest.raises(ValueError, match="window"):
            fit(problem)

    def test_rejects_bad_bounds(self):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        with pytest.raises(ValueError, match="bounds"):
            FitProblem(ROOM, LAM, COND, PULSE, co, cross, bounds=((0.0, 1.0),) * 3)

    @pytest.mark.parametrize("noise0", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_initial_noise(self, noise0):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        with pytest.raises(ValueError, match="initial noise power"):
            FitProblem(ROOM, LAM, COND, PULSE, co, cross,
                       initial_guess=(0.5, 0.1, 0.05, noise0))

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(wavelength=0.0), "wavelength must be > 0"),
            (dict(wavelength=-LAM), "wavelength must be > 0"),
            (dict(method="powell"), "method must be one of"),
            (dict(max_iterations=0), "max_iterations must be >= 1"),
            (dict(max_iterations=2.5), "max_iterations must be an integer, got 2.5"),
            (dict(wavelength=math.inf), "wavelength must be > 0 and finite"),
            (dict(bounds=((0.1, 0.9),) * 2), "bounds must give"),
            (dict(fit_window=(400e-9, 500e-9)), "does not overlap the grid"),
            (dict(fit_window=(50e-9, 20e-9)), "does not overlap the grid"),
            (dict(max_iterations=True), "max_iterations must be an integer, got True"),
            (dict(initial_guess=(0.5, 0.1, 0.05)), "initial_guess must give"),
            (dict(initial_guess=(0.5, 0.1, 0.05, None, 0.2)), "initial_guess must give"),
            (dict(bounds=((0.01, 0.5, 0.7),) * 3), "bounds must give"),
        ],
        ids=["zero-wavelength", "negative-wavelength", "method", "max-iterations",
             "fractional-max-iterations", "infinite-wavelength",
             "two-bounds", "window-past-grid", "reversed-window", "bool-max-iterations",
             "three-value-guess", "five-value-guess", "three-value-bound"],
    )
    def test_rejects_invalid_settings(self, kw, message):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        kw = {"wavelength": LAM, **kw}
        with pytest.raises(ValueError, match=message):
            FitProblem(room=ROOM, cond=COND, pulse=PULSE, co_trace=co, cross_trace=cross, **kw)

    def test_numpy_integer_budget_is_accepted(self):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        runs = [fit(FitProblem(ROOM, LAM, COND, PULSE, co, cross, max_iterations=n))
                for n in (3, np.int64(3))]
        assert runs[0].iterations == runs[1].iterations


class TestResidual:
    def test_zero_at_the_generating_parameters(self):
        truth = (0.4, 0.04, 0.02, 1e-11)
        problem = synth_problem(*truth)
        npt.assert_array_equal(residual(truth, problem), np.zeros(2 * GRID.size))

    def test_rejects_out_of_bounds_parameters(self):
        problem = synth_problem()
        with pytest.raises(ValueError, match="outside bounds"):
            residual((1.5, 0.04, 0.02, 1e-11), problem)
        with pytest.raises(ValueError, match="noise"):
            residual((0.4, 0.04, 0.02, 0.0), problem)

    def test_doubling_noise_raises_only_the_floor_region(self):
        truth = (0.4, 0.04, 0.02, 1e-11)
        problem = synth_problem(*truth)
        base = residual(truth, problem)
        doubled = residual((0.4, 0.04, 0.02, 2e-11), problem)
        delta = doubled - base

        material = WallMaterial(0.4, 0.04)
        mu = PolGain.from_split(0.02)
        p, _ = channel_pair(
            PdsParams(room=ROOM, material=material, mu_t=mu, mu_r=mu, wavelength=LAM)
        )
        diffuse = observed_pds(
            GRID, p, COND, ObservationParams(pulse=PULSE, noise_power=0.0)
        ).values
        floor_region = diffuse < 1e-11 / 10.0
        strong_region = diffuse > 10.0 * 1e-11
        delta_co = delta[: GRID.size]
        assert np.all(delta_co[floor_region] > 2.5)
        assert np.all(delta_co[floor_region] < 3.1)
        assert np.all(np.abs(delta_co[strong_region]) < 0.5)

    def test_leakage_moves_cross_onset_not_co_start(self):
        truth = (0.4, 0.04, 0.02, 1e-11)
        problem = synth_problem(*truth)
        step = 0.002
        up = residual((0.4, 0.04 + step, 0.02, 1e-11), problem)
        down = residual((0.4, 0.04 - step, 0.02, 1e-11), problem)
        sens = (up - down) / (2.0 * step)
        t_rev = reverberation_time(ROOM, WallMaterial(0.4, 0.04))
        onset = 1.8 / 2.99792458e8
        early = (GRID > onset + 2e-9) & (GRID < onset + t_rev)
        co_early = np.max(np.abs(sens[: GRID.size][early]))
        cross_early = np.max(np.abs(sens[GRID.size :][early]))
        assert co_early < 0.2 * cross_early


class TestFit:
    TRUTH = (0.4, 0.04, 0.02, 1e-11)

    def test_noise_free_round_trip(self):
        result = fit(synth_problem(*self.TRUTH))
        assert result.converged
        assert result.g == pytest.approx(0.4, rel=0.01)
        assert result.gamma == pytest.approx(0.04, rel=0.01)
        assert result.xi == pytest.approx(0.02, abs=0.005)
        assert result.noise_power == pytest.approx(1e-11, rel=0.05)
        assert result.residual_rms_db < 1e-4

    def test_noisy_round_trip_median_errors(self):
        g_err, gamma_err = [], []
        for seed in range(10):
            problem = synth_problem(*self.TRUTH, db_noise_std=0.5, seed=seed)
            result = fit(problem)
            g_err.append(abs(result.g - 0.4) / 0.4)
            gamma_err.append(abs(result.gamma - 0.04) / 0.04)
        assert np.median(g_err) < 0.05
        assert np.median(gamma_err) < 0.05

    @pytest.mark.parametrize("g", [0.3, 0.4, 0.6])
    @pytest.mark.parametrize("gamma", [0.01, 0.04, 0.1])
    @pytest.mark.parametrize("xi", [0.02, 0.05])
    def test_identifiability_grid(self, g, gamma, xi):
        result = fit(synth_problem(g, gamma, xi, 1e-11))
        assert result.g == pytest.approx(g, rel=0.01)
        assert result.gamma == pytest.approx(gamma, rel=0.01)
        assert result.xi == pytest.approx(xi, abs=0.005)
        assert result.noise_power == pytest.approx(1e-11, rel=0.05)

    def test_simplex_round_trip(self):
        result = fit(synth_problem(*self.TRUTH, method="simplex"))
        assert result.g == pytest.approx(0.4, rel=0.01)
        assert result.gamma == pytest.approx(0.04, rel=0.01)
        assert result.xi == pytest.approx(0.02, abs=0.005)

    def test_fitted_values_stay_inside_bounds(self):
        result = fit(synth_problem(*self.TRUTH))
        for value, (lo, hi) in zip((result.g, result.gamma, result.xi),
                                   synth_problem().bounds):
            assert lo < value < hi
        assert result.noise_power > 0

    def test_objective_descends_to_its_minimum(self):
        result = fit(synth_problem(*self.TRUTH))
        # the objective sums the squares of both channels' residuals, GRID.size each
        final = 2 * GRID.size * result.residual_rms_db**2
        assert final <= result.objective_history[0]
        assert final <= np.min(result.objective_history) * (1 + 1e-9) + 1e-30

    def test_iteration_budget_reports_non_convergence(self):
        result = fit(synth_problem(*self.TRUTH, max_iterations=3))
        assert not result.converged

    def test_weak_cross_identification_is_flagged(self):
        problem = synth_problem(g=0.4, gamma=1e-5, xi=1e-6, noise=2e-3)
        result = fit(problem)
        assert result.weakly_identified

    def test_strong_cross_identification_is_not_flagged(self):
        result = fit(synth_problem(*self.TRUTH))
        assert not result.weakly_identified

    def test_fit_reaching_an_upper_bound_stays_inside_it(self):
        # the truth gamma = 0.04 lies above the box, so the search runs to
        # expit(u) = 1, where lo + (hi - lo) rounds to 0.020000000000000004
        bounds = ((1e-6, 1.0 - 1e-6), (0.002, 0.02), (1e-6, 1.0 - 1e-6))
        result = fit(synth_problem(*self.TRUTH, bounds=bounds))
        assert result.gamma == 0.02
        for value, (lo, hi) in zip((result.g, result.gamma, result.xi), bounds):
            assert lo <= value <= hi


class TestGatedTraces:
    def test_window_allows_gated_minus_infinity_outside(self):
        co, cross = synth_traces(0.4, 0.04, 0.02, 1e-11)
        gated_co = PdpTrace(co.delays, np.where(co.delays < 5e-9, -np.inf, co.values), "db")
        gated_cross = PdpTrace(
            cross.delays, np.where(cross.delays < 5e-9, -np.inf, cross.values), "db"
        )
        problem = FitProblem(
            ROOM, LAM, COND, PULSE, gated_co, gated_cross,
            fit_window=(7e-9, 299e-9), initial_guess=(0.5, 0.1, 0.05, 1e-10),
        )
        result = fit(problem)
        assert result.g == pytest.approx(0.4, rel=0.01)
        with pytest.raises(ValueError, match="non-finite"):
            FitProblem(ROOM, LAM, COND, PULSE, gated_co, gated_cross)


class TestTransforms:
    def test_round_trip_identity(self):
        bounds = ((1e-6, 1 - 1e-6),) * 3
        params = (0.37, 0.042, 0.019, 3.7e-12)
        back = _from_internal(_to_internal(params, bounds), bounds)
        npt.assert_allclose(back, params, rtol=1e-12)

    # Over the unit interval both transforms reduce to scipy.special's logit
    # and expit, which the fit used before it ran on numpy alone.
    UNIT = ((0.0, 1.0),) * 3

    @staticmethod
    def interval_points():
        """Random points, the formula's branch edges, and points within 1e-6 of 0 and 1."""
        near = np.geomspace(1e-16, 1e-6, 50)
        edges = [np.nextafter(e, d) for e in (0.3, 0.65) for d in (0.0, 1.0)]
        return np.concatenate([
            np.random.default_rng(0).uniform(0.0, 1.0, 3000), [0.3, 0.65], edges, near, 1.0 - near,
        ])

    def test_to_internal_is_scipy_logit_bit_for_bit(self):
        from scipy.special import logit

        x = self.interval_points()
        x = np.concatenate([x, np.full(-x.size % 3, 0.5)])
        ours = np.concatenate(
            [_to_internal((*x[i : i + 3], 1.0), self.UNIT)[:3] for i in range(0, x.size, 3)]
        )
        npt.assert_array_equal(ours, logit(x))

    def test_from_internal_is_scipy_expit_bit_for_bit(self):
        from scipy.special import expit, logit

        u = np.concatenate([
            np.random.default_rng(1).uniform(-40.0, 40.0, 3000),
            logit(self.interval_points()),
        ])
        u = np.concatenate([u, np.zeros(-u.size % 3)])
        ours = np.concatenate(
            [_from_internal((*u[i : i + 3], 0.0), self.UNIT)[:3] for i in range(0, u.size, 3)]
        )
        npt.assert_array_equal(ours, expit(u))


class TestTrustRegionPort:
    """`fit`'s least-squares search, `fitting._trf`, against the scipy routine it ports.

    `scipy.optimize.least_squares(method="trf")` is swapped in for the port,
    so both run on the same u-space residual, Jacobian and tolerances.
    """

    @staticmethod
    def scipy_trf(fun, jac, x0, max_nfev):
        from scipy.optimize import least_squares

        opt = least_squares(fun, x0, jac=jac, method="trf", ftol=fitting._FTOL,
                            xtol=fitting._XTOL, gtol=fitting._GTOL, max_nfev=max_nfev)
        return opt.x, opt.status > 0

    def fit_with_scipy(self, problem, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(fitting, "_trf", self.scipy_trf)
            return fit(problem)

    @staticmethod
    def values(result):
        return np.array([result.g, result.gamma, result.xi, result.noise_power])

    @pytest.mark.parametrize("kind", ["boxcar", "gaussian"])
    @pytest.mark.parametrize("los", [False, True])
    def test_criterion_3_fits_match_scipy(self, monkeypatch, los, kind):
        pulse = PulseShape(kind=kind, bandwidth=0.5e9)
        cond = DistanceCondition(distance=1.8, los=los)
        for noise in [{}] + [dict(db_noise_std=0.5, seed=s) for s in range(4)]:
            problem = synth_problem(*TestFit.TRUTH, cond=cond, pulse=pulse, **noise)
            ours = fit(problem)
            theirs = self.fit_with_scipy(problem, monkeypatch)
            # numpy's and scipy's LAPACK builds give SVDs a few ulps apart, so
            # the two searches may stop a step apart where the optimum is flat
            # (xi 4e-8 apart at equal objectives for NLOS boxcar seed 3)
            assert ours.converged == theirs.converged
            npt.assert_allclose(self.values(ours), self.values(theirs), rtol=1e-6)
            # the RMS is the objective's square root, so rel _FTOL / 2 on it
            # is rel _FTOL on the objective
            assert ours.residual_rms_db == pytest.approx(theirs.residual_rms_db,
                                                         rel=fitting._FTOL / 2)

    def test_non_finite_start_is_rejected(self):
        with pytest.raises(ValueError, match="not finite in the initial point"):
            fitting._trf(lambda x: np.array([np.inf, 0.0]), lambda x: np.eye(2), np.zeros(2), 9)

    # Fits that reach the port's trust-region branches, not only Gauss-Newton
    # steps: a bounded radius, a carried Levenberg-Marquardt parameter, and a
    # trial point equal to the last evaluated one (scipy then reuses its
    # residuals, so a second call would add one evaluation).
    HARD_CASES = {
        "repeated trial point": dict(g=0.4219363344299105, gamma=0.039765781465504746,
                                     xi=0.020783521377368462),
        "weak cross channel": dict(g=0.4, gamma=1e-5, xi=1e-6, noise=2e-3),
        "xi bound stall": dict(g=0.3332, gamma=0.033, xi=0.1839),
        "low gain": dict(g=0.3, gamma=0.01, xi=0.02),
        "far start": dict(initial_guess=(0.1, 0.5, 0.3, 1e-8)),
        "spent budget": dict(max_iterations=3),
    }

    @pytest.mark.parametrize("case", HARD_CASES)
    def test_with_scipys_svd_the_port_takes_scipys_steps(self, monkeypatch, case):
        import scipy.linalg

        problem = synth_problem(**self.HARD_CASES[case])
        with monkeypatch.context() as m:
            m.setattr(fitting, "svd", scipy.linalg.svd)
            ours = fit(problem)
        theirs = self.fit_with_scipy(problem, monkeypatch)
        assert (ours.iterations, ours.converged) == (theirs.iterations, theirs.converged)
        npt.assert_array_equal(self.values(ours), self.values(theirs))

    def trf_both(self, fun, jac, x0, monkeypatch):
        """(x, converged, evaluated points) of `_trf` on scipy's SVD and of scipy's trf."""
        import scipy.linalg

        runs = []
        for search in (fitting._trf, self.scipy_trf):
            points = []

            def counted(x):
                points.append(x.copy())
                return fun(x)

            with monkeypatch.context() as m:
                m.setattr(fitting, "svd", scipy.linalg.svd)
                x, converged = search(counted, jac, np.array(x0), 100)
            runs.append((x, converged, points))
        return runs

    # r = exp(0.3 (x0 + x1)) - b has a rank-one Jacobian everywhere, so no
    # Gauss-Newton step exists and the first step seeds the LM parameter.
    @pytest.mark.parametrize("x0", [(0.0, 0.0), (1.0, -2.0), (-3.0, 0.5), (4.0, 4.0)])
    def test_rank_deficient_steps_are_scipys(self, monkeypatch, x0):
        b = np.array([1.0, 2.0, 4.0])
        fun = lambda x: np.exp(0.3 * (x[0] + x[1])) - b
        jac = lambda x: np.full((b.size, 2), 0.3 * np.exp(0.3 * (x[0] + x[1])))
        assert np.linalg.matrix_rank(jac(np.array(x0))) == 1
        (ours, ours_ok, ours_at), (theirs, theirs_ok, theirs_at) = self.trf_both(
            fun, jac, x0, monkeypatch)
        npt.assert_array_equal(ours, theirs)
        assert ours_ok and theirs_ok and len(ours_at) == len(theirs_at)
        assert math.exp(0.3 * ours.sum()) == pytest.approx(b.mean(), rel=1e-9)

    # Residuals that are inf outside |x| < 3: a trial point past that edge
    # shrinks the trust region and is retried, as in scipy.
    @pytest.mark.parametrize("x0", [(-2.0, -2.0), (1.0, 2.0), (2.9, -2.9)])
    def test_non_finite_trial_points_shrink_the_region_as_in_scipy(self, monkeypatch, x0):
        target = np.array([10.0, 15.0])

        def fun(x):
            return np.exp(x) - target if np.max(np.abs(x)) < 3.0 else np.full(2, np.inf)

        jac = lambda x: np.diag(np.exp(x))
        (ours, ours_ok, ours_at), (theirs, theirs_ok, theirs_at) = self.trf_both(
            fun, jac, x0, monkeypatch)
        assert any(np.max(np.abs(x)) >= 3.0 for x in ours_at)
        npt.assert_array_equal(ours, theirs)
        assert ours_ok and theirs_ok and len(ours_at) == len(theirs_at)
        npt.assert_allclose(ours, np.log(target), rtol=1e-9)


class TestPredict:
    def test_training_condition_reproduces_fitted_traces(self):
        problem = synth_problem(0.4, 0.04, 0.02, 1e-11)
        result = fit(problem)
        co, cross = predict(result, problem.cond, problem)
        material = WallMaterial(g=result.g, gamma=result.gamma)
        mu = PolGain.from_split(result.xi)
        p_co, _ = channel_pair(
            PdsParams(room=ROOM, material=material, mu_t=mu, mu_r=mu, wavelength=LAM)
        )
        obs = ObservationParams(pulse=PULSE, noise_power=result.noise_power)
        direct_co = observed_pds(GRID, p_co, problem.cond, obs)
        npt.assert_array_equal(co.values, direct_co.values)

    def test_los_prediction_adds_only_the_direct_bump(self):
        problem = synth_problem(0.4, 0.04, 0.02, 1e-11)
        result = fit(problem)
        nlos_co, _ = predict(result, DistanceCondition(1.8, los=False), problem)
        los_co, _ = predict(result, DistanceCondition(1.8, los=True), problem)
        diff = los_co.values - nlos_co.values
        c = SPEED_OF_LIGHT
        near = np.abs(GRID - 1.8 / c) <= PULSE.half_support() + GRID[1]
        assert np.all(diff[near] >= 0)
        assert np.max(diff[near]) > 0
        npt.assert_allclose(diff[~near], np.zeros(int((~near).sum())), atol=1e-18)

    def test_bump_weight_follows_inverse_square_law(self):
        problem = synth_problem(0.4, 0.04, 0.02, 1e-11)
        result = fit(problem)
        step = GRID[1] - GRID[0]
        bumps = {}
        for d in (1.35, 1.8):
            nlos, _ = predict(result, DistanceCondition(d, los=False), problem)
            los, _ = predict(result, DistanceCondition(d, los=True), problem)
            bumps[d] = np.sum(los.values - nlos.values) * step
        assert bumps[1.35] / bumps[1.8] == pytest.approx((1.8 / 1.35) ** 2, rel=1e-3)
