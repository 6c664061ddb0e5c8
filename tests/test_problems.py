import re
import json

import numpy as np
import pytest

from madpde import diffcore as dc
from madpde import grf, network, oracles, problems
from madpde.diffcore import Jet2
from madpde.grf import BURGERS_GRF, LAPLACE_GRF, GrfSample
from madpde.problems import (BurgersTask, LaplaceTriangleTask, OdeShiftTask,
                             ProblemError)


def make_laplace_task(seed=0):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0, 2 * np.pi, 3))
    h = grf.sample_grf(LAPLACE_GRF, rng)
    return LaplaceTriangleTask(tuple(angles), h)


def make_burgers_task(seed=0):
    return BurgersTask(grf.sample_grf(BURGERS_GRF, np.random.default_rng(seed)), 0.01)


def residual(task, points, jets):
    return task.residual(jets, task.residual_coefficients(points))


def boundary_residual(task, u_value, point):
    """u(point) minus the Dirichlet target; errors off the boundary set."""
    target = task.boundary_targets(np.atleast_2d(point))
    return float(np.asarray(u_value).ravel()[0] - target[0])


def exact_ode_jets(eta, x):
    """Jets of sin((x-eta)^2) built with exact jet arithmetic."""
    jx = Jet2(x.reshape(-1, 1), np.ones((x.size, 1)), np.zeros((x.size, 1)))
    shifted = dc.jet_sub(jx, dc.jet_const(eta))
    return {0: dc.jet_sin(dc.jet_mul(shifted, shifted))}


class TestResidual:
    def test_ode_exact_solution_annihilates(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-np.pi, np.pi, 100)
        task = OdeShiftTask(0.0)
        r = residual(task, x.reshape(-1, 1), exact_ode_jets(0.0, x))
        assert np.max(np.abs(dc.value_of(r))) <= 1e-12

    def test_laplace_linear_harmonic(self):
        # u(x, y) = x: d2 along both directions vanishes
        task = make_laplace_task()
        pts = np.zeros((5, 2))
        jets = {
            0: Jet2(pts[:, :1], np.ones((5, 1)), np.zeros((5, 1))),
            1: Jet2(pts[:, :1], np.zeros((5, 1)), np.zeros((5, 1))),
        }
        r = residual(task, pts, jets)
        np.testing.assert_array_equal(dc.value_of(r), 0.0)

    def test_burgers_constant_field(self):
        task = make_burgers_task()
        pts = np.random.default_rng(1).random((7, 2))
        c = np.full((7, 1), 3.3)
        z = np.zeros((7, 1))
        jets = {0: Jet2(c, z, z), 1: Jet2(c, z, z)}
        r = residual(task, pts, jets)
        np.testing.assert_array_equal(dc.value_of(r), 0.0)

    def test_missing_direction_raises(self):
        task = make_burgers_task()
        pts = np.zeros((2, 2))
        z = np.zeros((2, 1))
        with pytest.raises(ProblemError):
            residual(task, pts, {0: Jet2(z, z, z)})
        with pytest.raises(ProblemError):
            residual(task, pts, {0: Jet2(z, z, None), 1: Jet2(z, z, None)})

    def test_residual_on_oracles_via_jets(self):
        # Laplace: harmonic polynomials Re/Im (x+iy)^k via exact jet algebra
        task = make_laplace_task(3)
        h = task.boundary_field
        rng = np.random.default_rng(4)
        pts = problems.sample_batch(task, 100, 2, rng).interior

        def jets_of_solution(direction):
            x = Jet2(pts[:, :1], np.full((100, 1), 1.0 if direction == 0 else 0.0),
                     np.zeros((100, 1)))
            y = Jet2(pts[:, 1:2], np.full((100, 1), 1.0 if direction == 1 else 0.0),
                     np.zeros((100, 1)))
            u = dc.jet_const(np.full((100, 1), h.cos_coeffs[0]))
            P = dc.jet_const(np.ones((100, 1)))  # Re (x+iy)^k
            Q = dc.jet_const(np.zeros((100, 1)))  # Im (x+iy)^k
            for k in range(1, h.n_modes + 1):
                P, Q = (dc.jet_sub(dc.jet_mul(P, x), dc.jet_mul(Q, y)),
                        dc.jet_add(dc.jet_mul(P, y), dc.jet_mul(Q, x)))
                term = dc.jet_add(dc.jet_mul(P, dc.jet_const(h.cos_coeffs[k])),
                                  dc.jet_mul(Q, dc.jet_const(h.sin_coeffs[k - 1])))
                u = dc.jet_add(u, term)
            return u

        jets = {0: jets_of_solution(0), 1: jets_of_solution(1)}
        vals = dc.value_of(jets[0].val).ravel()
        np.testing.assert_allclose(
            vals, oracles.laplace_solution_xy(h, pts[:, 0], pts[:, 1]), atol=1e-12)
        r = residual(task, pts, jets)
        assert np.max(np.abs(dc.value_of(r))) <= 1e-3

    def test_burgers_residual_on_reference(self):
        # spectral x-derivatives + FD in t of the stored reference slices
        task = make_burgers_task(5)
        nx, nt = 256, 400
        ref = oracles.burgers_solve(task.u0, task.nu, nx, nt)
        tgrid, xgrid = ref.axes
        dt = tgrid[1] - tgrid[0]
        k = 2 * np.pi * np.fft.rfftfreq(nx, d=1.0 / nx)
        rows = np.random.default_rng(6).integers(1, nt, size=100)
        cols = np.random.default_rng(7).integers(0, nx, size=100)
        vals, d1x, d2x, d1t = [], [], [], []
        for i, j in zip(rows, cols):
            u_hat = np.fft.rfft(ref.values[i])
            vals.append(ref.values[i, j])
            d1x.append(np.fft.irfft(1j * k * u_hat)[j])
            d2x.append(np.fft.irfft(-(k ** 2) * u_hat)[j])
            d1t.append((ref.values[i + 1, j] - ref.values[i - 1, j]) / (2 * dt))
        col = lambda v: np.asarray(v).reshape(-1, 1)
        jets = {0: Jet2(col(vals), col(d1x), col(d2x)),
                1: Jet2(col(vals), col(d1t), None)}
        pts = np.stack([xgrid[cols], tgrid[rows]], axis=1)
        r = residual(task, pts, jets)
        assert np.max(np.abs(dc.value_of(r))) <= 1e-3


class TestBoundary:
    def test_ode_endpoint(self):
        task = OdeShiftTask(0.0)
        r = boundary_residual(task, np.sin(np.pi ** 2), np.array([-np.pi]))
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_ode_off_boundary_rejected(self):
        with pytest.raises(ProblemError):
            boundary_residual(OdeShiftTask(0.0), 0.0, np.array([0.5]))

    def test_burgers_initial_condition(self):
        task = make_burgers_task(2)
        x = 0.37
        u0x = grf.evaluate_grf(task.u0, np.array([x]))[0]
        assert boundary_residual(task, u0x, np.array([x, 0.0])) == \
            pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ProblemError):
            boundary_residual(task, 0.0, np.array([x, 0.5]))

    def test_laplace_edge_trace(self):
        task = make_laplace_task(1)
        verts = task.vertices()
        p = 0.3 * verts[0] + 0.7 * verts[1]
        target = oracles.laplace_solution_xy(task.boundary_field, p[0], p[1])
        assert boundary_residual(task, float(target), p) == \
            pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ProblemError):
            boundary_residual(task, 0.0, verts.mean(axis=0))


class TestSampler:
    def test_ode_equidistant_grid(self):
        batch = problems.sample_batch(OdeShiftTask(0.3), 128, 2,
                                      np.random.default_rng(0))
        x = batch.interior[:, 0]
        assert x[0] == pytest.approx(-np.pi)
        assert x[-1] == pytest.approx(np.pi)
        np.testing.assert_allclose(np.diff(x), 2 * np.pi / 127, rtol=1e-12)
        assert batch.boundary.shape == (2, 1)

    def test_burgers_domain(self):
        batch = problems.sample_batch(make_burgers_task(), 500, 50,
                                      np.random.default_rng(1))
        x, t = batch.interior[:, 0], batch.interior[:, 1]
        assert np.all((x >= 0) & (x < 1))
        assert np.all((t > 0) & (t <= 1))
        assert np.all(batch.boundary[:, 1] == 0.0)
        np.testing.assert_allclose(
            batch.boundary_values,
            grf.evaluate_grf(make_burgers_task().u0, batch.boundary[:, 0]))

    def test_laplace_interior_barycentric_positive(self):
        task = make_laplace_task(2)
        batch = problems.sample_batch(task, 400, 60, np.random.default_rng(3))
        bary = problems._barycentric(task.vertices(), batch.interior)
        assert np.all(bary > 0)

    def test_laplace_median_split(self):
        task = make_laplace_task(4)
        rng = np.random.default_rng(5)
        pts = problems.sample_batch(task, 10_000, 2, rng).interior
        a, b, c = task.vertices()
        mid = 0.5 * (b + c)  # median from vertex a
        side = np.sign((mid - a)[0] * (pts - a)[:, 1] - (mid - a)[1] * (pts - a)[:, 0])
        frac = np.mean(side > 0)
        assert abs(frac - 0.5) < 0.05

    def test_determinism(self):
        task = make_burgers_task(3)
        b1 = problems.sample_batch(task, 64, 16, np.random.default_rng(9))
        b2 = problems.sample_batch(task, 64, 16, np.random.default_rng(9))
        np.testing.assert_array_equal(b1.interior, b2.interior)
        np.testing.assert_array_equal(b1.boundary, b2.boundary)

    def test_degenerate_triangle_rejected(self):
        h = grf.sample_grf(LAPLACE_GRF, np.random.default_rng(0))
        with pytest.raises(ProblemError):
            LaplaceTriangleTask((0.1, 0.1 + 1e-5, 2.0), h)

    def test_burgers_initial_condition_on_the_circle_rejected(self):
        # the spectral oracle and periodic_x assume a period of 1 in x
        h = grf.sample_grf(LAPLACE_GRF, np.random.default_rng(0))
        with pytest.raises(ProblemError, match="periodic unit interval"):
            BurgersTask(h, 0.01)


class TestSerialization:
    @pytest.mark.parametrize("task", [OdeShiftTask(1.25), make_burgers_task(11),
                                      make_laplace_task(12)])
    def test_roundtrip(self, task):
        back = problems.task_from_json(task.to_json())
        assert back.variant == task.variant
        if isinstance(task, OdeShiftTask):
            assert back.eta == task.eta
        elif isinstance(task, BurgersTask):
            np.testing.assert_array_equal(back.u0.cos_coeffs, task.u0.cos_coeffs)
            assert back.nu == task.nu
        else:
            np.testing.assert_allclose(back.vertex_angles, task.vertex_angles)
            np.testing.assert_array_equal(back.boundary_field.sin_coeffs,
                                          task.boundary_field.sin_coeffs)


@pytest.mark.parametrize("cls", list(problems.VARIANTS.values()),
                         ids=list(problems.VARIANTS))
class TestFamilyContract:
    """What every registered family must honour; a new family registered in
    ``problems.VARIANTS`` is covered without further tests."""

    @pytest.fixture()
    def task(self, cls):
        return cls.build({}, 2, 0)[1]

    def test_json_roundtrip(self, cls, task):
        text = json.dumps(task.to_json(), sort_keys=True)
        back = problems.task_from_json(json.loads(text))
        assert type(back) is cls and back.variant == cls.variant
        assert json.dumps(back.to_json(), sort_keys=True) == text

    def test_batch_shapes_and_boundary_check(self, cls, task):
        batch = problems.sample_batch(task, 9, 5, np.random.default_rng(1))
        assert batch.interior.shape == (9, cls.input_dim)
        assert batch.boundary.shape[1] == cls.input_dim
        np.testing.assert_array_equal(task.boundary_targets(batch.boundary),
                                      batch.boundary_values)

    def test_directions_within_input(self, cls):
        assert cls.directions
        assert all(0 <= d < cls.input_dim and order in (1, 2)
                   for d, order in cls.directions.items())

    def test_residual_from_network_jets(self, cls, task):
        cfg = network.NetworkConfig(input_dim=cls.input_dim, latent_dim=2,
                                    hidden_layers=2, width=6, first_layer_omega=2.0,
                                    input_encoding=cls.encoding)
        params = network.init_siren(cfg, 0)
        batch = problems.sample_batch(task, 7, 3, np.random.default_rng(2))
        jets, _ = network.forward_jets(params, batch.interior, np.array([0.1, -0.2]),
                                       list(cls.directions), cls.directions)
        r = dc.value_of(cls.residual(jets, task.residual_coefficients(batch.interior)))
        assert r.shape == (7, 1)
        assert np.all(np.isfinite(r))


class TestTaskJsonErrors:
    def test_missing_parameter_names_variant_and_key(self):
        with pytest.raises(ProblemError, match="ode_shift.*'eta'"):
            problems.task_from_json({"variant": "ode_shift"})
        with pytest.raises(ProblemError, match="burgers.*'u0'"):
            problems.task_from_json({"variant": "burgers", "nu": 0.01})

    def test_unknown_variant(self):
        with pytest.raises(ProblemError, match="unknown task variant 'maxwell'"):
            problems.task_from_json({"variant": "maxwell"})

    @pytest.mark.parametrize("d, words", [
        ("ode_shift", ["JSON object", "'ode_shift'"]),
        ([{"variant": "ode_shift", "eta": 0.5}], ["JSON object"]),
        ({"variant": ["ode_shift"], "eta": 0.5}, ["unknown task variant"]),
        ({"variant": "ode_shift", "eta": "abc"}, ["bad ode_shift task", "'abc'"]),
        ({"variant": "ode_shift", "eta": None}, ["bad ode_shift task"]),
        ({"variant": "burgers", "nu": 0.01,
          "u0": {"cos": [0.0, 1.0], "sin": "x", "domain": "unit_interval_periodic"}},
         ["bad burgers task", "'x'"]),
    ], ids=["string", "list", "variant_list", "eta_not_a_number", "eta_null",
            "u0_sin_not_a_number"])
    def test_malformed_task_raises_problem_error(self, d, words):
        with pytest.raises(ProblemError) as info:
            problems.task_from_json(d)
        assert all(w in str(info.value) for w in words), str(info.value)


class TestCheckSettings:
    """Each family checks its ``problem`` settings and fills in its defaults."""

    @pytest.mark.parametrize("cls, problem, settings", [
        (OdeShiftTask, {}, {"eta_range": [0.0, 2.0]}),
        (OdeShiftTask, {"eta_range": [1, 3]}, {"eta_range": [1.0, 3.0]}),
        (BurgersTask, {}, {"nu": 0.01, "grf": {"scale": 1000.0, "shift": 9.0,
                                                "power": 3, "n_modes": 32}}),
        (BurgersTask, {"nu": 0.1, "grf": {"n_modes": 8}},
         {"nu": 0.1, "grf": {"scale": 1000.0, "shift": 9.0, "power": 3, "n_modes": 8}}),
        (LaplaceTriangleTask, {}, {"grf": {"scale": LAPLACE_GRF.scale, "shift": 100.0,
                                           "power": 3, "n_modes": 16}}),
    ], ids=["ode", "ode_given", "burgers", "burgers_given", "laplace"])
    def test_defaults_filled_in(self, cls, problem, settings):
        assert cls.check_settings(problem) == settings
        # the completed settings build the same tasks as the lean ones
        full = cls.check_settings(problem)
        a, b = cls.build(problem, 3, 4), cls.build(full, 3, 4)
        assert [t.to_json() for t in a] == [t.to_json() for t in b]

    @pytest.mark.parametrize("cls, problem, words", [
        (OdeShiftTask, {"eta_range": "abc"}, "problem.eta_range must be [low, high]"),
        (OdeShiftTask, {"eta_range": [0.0, float("inf")]}, "must be a finite number"),
        (BurgersTask, {"nu": 0.0}, "problem.nu must be positive"),
        (BurgersTask, {"nu": float("nan")}, "problem.nu must be a finite number"),
        (BurgersTask, {"nu": True}, "problem.nu must be a finite number"),
        (BurgersTask, {"grf": {"n_modes": 8.5}},
         "problem.grf.n_modes must be a finite integer"),
        (BurgersTask, {"grf": {"scale": -1.0}}, "bad problem.grf settings"),
        (LaplaceTriangleTask, {"grf": 3}, "problem.grf must be an object"),
    ], ids=["eta_range_text", "eta_range_infinite", "nu_zero", "nu_nan", "nu_bool",
            "n_modes_fraction", "negative_scale", "grf_number"])
    def test_bad_settings(self, cls, problem, words):
        with pytest.raises(problems.ProblemError, match=re.escape(words)):
            cls.check_settings(problem)
