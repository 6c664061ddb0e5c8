import json

import numpy as np
import pytest

from madpde import grf, oracles
from madpde.grf import BURGERS_GRF, LAPLACE_GRF, GrfSample
from madpde.oracles import ReferenceField


class TestOdeExact:
    def test_zero_at_eta(self):
        assert oracles.ode_exact(0.7, 0.7) == pytest.approx(0.0)

    def test_unit_peak(self):
        assert oracles.ode_exact(0.0, np.sqrt(np.pi / 2)) == pytest.approx(1.0)

    def test_value_at_pi(self):
        assert oracles.ode_exact(0.0, np.pi) == pytest.approx(np.sin(np.pi ** 2))
        assert oracles.ode_exact(0.0, np.pi) == pytest.approx(-0.4303, abs=1e-4)


class TestBurgersSolver:
    def test_initial_slice_matches_grf(self):
        u0 = grf.sample_grf(BURGERS_GRF, np.random.default_rng(1))
        ref = oracles.burgers_solve(u0, nu=0.05, nx=128, nt=10)
        x = np.arange(128) / 128.0
        np.testing.assert_array_equal(ref.values[0], grf.evaluate_grf(u0, x))

    def test_zero_initial_condition_stays_zero(self):
        u0 = GrfSample(np.zeros(3), np.zeros(2), "unit_interval_periodic")
        ref = oracles.burgers_solve(u0, nu=0.01, nx=64, nt=5)
        np.testing.assert_allclose(ref.values, 0.0, atol=1e-14)

    def test_mass_conservation(self):
        u0 = grf.sample_grf(BURGERS_GRF, np.random.default_rng(2))
        u0.cos_coeffs[0] = 0.0  # mean-zero field
        ref = oracles.burgers_solve(u0, nu=0.01, nx=256, nt=20)
        mass = ref.values.mean(axis=1)
        scale = np.abs(ref.values).max()
        assert np.max(np.abs(mass)) <= 1e-6 * scale

    @pytest.mark.slow
    def test_cross_check_crank_nicolson(self):
        rng = np.random.default_rng(31)
        for _ in range(2):
            u0 = grf.sample_grf(BURGERS_GRF, rng)
            a = oracles.burgers_solve(u0, nu=0.01, nx=512, nt=20)
            b = oracles.burgers_solve_cn(u0, nu=0.01, nx=512, nt=20)
            assert oracles.relative_l2(b.values, a.values) <= 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_temporal_order_four(self, seed):
        # unit amplitude, so that each output interval spans several steps and
        # halving ``safety`` halves the step; exact halving gives 16x
        draw = grf.sample_grf(BURGERS_GRF, np.random.default_rng(seed))
        scale = 1.0 / np.abs(grf.evaluate_grf(draw, np.arange(256) / 256.0)).max()
        u0 = GrfSample(scale * draw.cos_coeffs, scale * draw.sin_coeffs, draw.domain)
        fine = oracles.burgers_solve(u0, nu=0.01, nx=256, nt=20, safety=1 / 16)
        errs = [oracles.relative_l2(oracles.burgers_solve(
                    u0, nu=0.01, nx=256, nt=20, safety=s).values, fine.values)
                for s in (4.0, 2.0, 1.0)]
        assert errs[0] >= 8 * errs[1] and errs[1] >= 8 * errs[2], errs

    def test_stiff_linear_decay(self):
        # nu k^2 dt is ~1e5 at the top kept mode; the diffusion is exact, so a
        # tiny amplitude (negligible advection) decays as the heat equation
        nu = 0.5
        u0 = GrfSample(np.zeros(2), np.array([1e-8]), "unit_interval_periodic")
        ref = oracles.burgers_solve(u0, nu=nu, nx=512, nt=10)
        t, x = ref.axes
        exact = np.outer(np.exp(-4 * np.pi ** 2 * nu * t), 1e-8 * np.sin(2 * np.pi * x))
        assert oracles.relative_l2(ref.values, exact) <= 1e-6
        assert ref.meta["solver"] == "spectral_etdrk4"

    def test_crank_nicolson_matches_dense_solve(self):
        # the rfft-space solve against the dense circulant system it replaces
        u0 = GrfSample(np.array([0.1, 0.0, 0.2]), np.array([0.5, 0.0]),
                       "unit_interval_periodic")
        nu, nx, nt, sub = 0.05, 32, 2, 40
        dx, dt = 1.0 / nx, 1.0 / (nt * sub)
        ident = np.eye(nx)
        D2 = (-2 * ident + np.roll(ident, 1, axis=1)
              + np.roll(ident, -1, axis=1)) / dx ** 2
        A = ident - 0.5 * nu * dt * D2
        B = ident + 0.5 * nu * dt * D2

        def advect(u):
            return u * (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

        u = grf.evaluate_grf(u0, np.arange(nx) / nx)
        n_prev = advect(u)
        expected = [u]
        for _ in range(nt):
            for _ in range(sub):
                n_cur = advect(u)
                u = np.linalg.solve(A, B @ u - dt * (1.5 * n_cur - 0.5 * n_prev))
                n_prev = n_cur
            expected.append(u)
        got = oracles.burgers_solve_cn(u0, nu, nx, nt, substeps_per_interval=sub)
        np.testing.assert_allclose(got.values, np.array(expected), rtol=1e-12,
                                   atol=1e-12 * np.abs(expected[0]).max())

    def test_bad_nx_rejected(self):
        u0 = GrfSample(np.zeros(2), np.zeros(1), "unit_interval_periodic")
        with pytest.raises(ValueError):
            oracles.burgers_solve(u0, nu=0.01, nx=100, nt=4)

    def test_cfl_blowup_reported(self):
        # huge initial amplitude with a tiny step budget must error, not hang
        u0 = GrfSample(np.array([500.0, 100.0]), np.array([100.0]),
                       "unit_interval_periodic")
        with pytest.raises(oracles.OracleError):
            oracles.burgers_solve(u0, nu=1e-4, nx=256, nt=50, max_steps=100)


class TestLaplaceSolution:
    def test_constant_boundary(self):
        h = GrfSample(np.array([1.0]), np.zeros(0), "unit_circle")
        r = np.linspace(0, 1, 5)
        th = np.linspace(0, 2 * np.pi, 5, endpoint=False)
        np.testing.assert_allclose(oracles.laplace_disk_solution(h, r, th), 1.0)

    def test_degree_one_harmonic(self):
        h = GrfSample(np.array([0.0, 1.0]), np.array([0.0]), "unit_circle")
        rng = np.random.default_rng(0)
        r = rng.uniform(0, 1, 20)
        th = rng.uniform(0, 2 * np.pi, 20)
        np.testing.assert_allclose(oracles.laplace_disk_solution(h, r, th),
                                   r * np.cos(th), atol=1e-14)

    def test_discrete_harmonicity(self):
        h = grf.sample_grf(LAPLACE_GRF, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        r = rng.uniform(0, 0.8, 50)
        th = rng.uniform(0, 2 * np.pi, 50)
        x, y = r * np.cos(th), r * np.sin(th)
        eps = 1e-3
        lap = (oracles.laplace_solution_xy(h, x + eps, y)
               + oracles.laplace_solution_xy(h, x - eps, y)
               + oracles.laplace_solution_xy(h, x, y + eps)
               + oracles.laplace_solution_xy(h, x, y - eps)
               - 4 * oracles.laplace_solution_xy(h, x, y)) / eps ** 2
        assert np.max(np.abs(lap)) <= 1e-3

    def test_maximum_principle(self):
        h = grf.sample_grf(LAPLACE_GRF, np.random.default_rng(8))
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        boundary_max = oracles.laplace_disk_solution(h, np.ones_like(th), th).max()
        rr, tt = np.meshgrid(np.linspace(0, 0.995, 60), th, indexing="ij")
        interior_max = oracles.laplace_disk_solution(h, rr.ravel(), tt.ravel()).max()
        assert interior_max <= boundary_max + 1e-9

    def test_outside_disk_rejected(self):
        h = GrfSample(np.array([1.0]), np.zeros(0), "unit_circle")
        with pytest.raises(oracles.OracleError):
            oracles.laplace_disk_solution(h, 1.5, 0.0)


class TestMetrics:
    def test_relative_l2_basics(self):
        ref = np.array([3.0, 4.0])
        assert oracles.relative_l2(ref, ref) == 0.0
        assert oracles.relative_l2(2 * ref, ref) == pytest.approx(1.0)

    def test_relative_l2_linearity(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=50)
        pert = rng.normal(size=50)
        pert /= np.linalg.norm(pert)
        eps = 1e-3
        got = oracles.relative_l2(ref + eps * pert, ref)
        assert got == pytest.approx(eps / np.linalg.norm(ref), rel=1e-12)

    def test_relative_l2_zero_reference(self):
        with pytest.raises(ValueError):
            oracles.relative_l2(np.ones(3), np.zeros(3))

    def test_mean_ci_constant(self):
        ci = oracles.mean_ci([0.01, 0.01, 0.01])
        assert ci.mean == pytest.approx(0.01)
        assert ci.hi - ci.lo == pytest.approx(0.0)

    def test_mean_ci_two_values(self):
        assert oracles.mean_ci([0.0, 2.0]).mean == pytest.approx(1.0)

    def test_mean_ci_requires_two(self):
        with pytest.raises(ValueError):
            oracles.mean_ci([1.0])

    def test_mean_ci_coverage(self):
        rng = np.random.default_rng(77)
        trials, n = 400, 1000
        covered = 0
        for _ in range(trials):
            ci = oracles.mean_ci(rng.standard_normal(n))
            covered += ci.lo <= 0.0 <= ci.hi
        assert 0.92 * trials <= covered <= 0.98 * trials


class TestReferencePersistence:
    def test_roundtrip(self, tmp_path):
        t = np.linspace(0, 1, 4)
        x = np.arange(8) / 8.0
        vals = np.random.default_rng(0).normal(size=(4, 8))
        ref = ReferenceField((t, x), vals, {"task": "demo"})
        p = str(tmp_path / "ref.bin")
        oracles.save_reference(p, ref)
        back = oracles.load_reference(p)
        np.testing.assert_array_equal(back.values, vals)
        np.testing.assert_array_equal(back.axes[0], t)
        assert back.meta["task"] == "demo"

    def test_truncated_file_rejected(self, tmp_path):
        ref = ReferenceField((np.arange(2.0), np.arange(3.0)),
                             np.zeros((2, 3)), {})
        p = str(tmp_path / "ref.bin")
        oracles.save_reference(p, ref)
        blob = open(p, "rb").read()
        open(p, "wb").write(blob[:-5])
        with pytest.raises(oracles.OracleError):
            oracles.load_reference(p)

    def test_magic_alone_rejected(self, tmp_path):
        p = str(tmp_path / "ref.bin")
        open(p, "wb").write(oracles._REF_MAGIC)
        with pytest.raises(oracles.OracleError, match="ref.bin"):
            oracles.load_reference(p)

    @pytest.mark.parametrize("missing", ["shape", "axes"])
    def test_header_without_key_rejected(self, tmp_path, missing):
        ref = ReferenceField((np.arange(2.0), np.arange(3.0)),
                             np.zeros((2, 3)), {})
        p = str(tmp_path / "ref.bin")
        oracles.save_reference(p, ref)
        blob = open(p, "rb").read()
        n = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + n])
        del header[missing]
        hbytes = json.dumps(header).encode()
        open(p, "wb").write(oracles._REF_MAGIC + len(hbytes).to_bytes(4, "little")
                            + hbytes + blob[12 + n:])
        with pytest.raises(oracles.OracleError, match="ref.bin"):
            oracles.load_reference(p)

    def test_garbage_rejected(self, tmp_path):
        p = str(tmp_path / "ref.bin")
        open(p, "wb").write(b"not a field")
        with pytest.raises(oracles.OracleError):
            oracles.load_reference(p)
