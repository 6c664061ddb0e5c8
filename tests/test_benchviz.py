from pathlib import Path

import numpy as np
import pytest

from madpde import benchviz
from madpde.benchviz import ConvergenceRecord, aggregate, pca_fit, project_trajectory


def rec(values, task_id="t0", method="m", seed=0):
    series = [(10 * i, v, v * 2.0) for i, v in enumerate(values)]
    return ConvergenceRecord(task_id, method, seed, series)


class TestRecords:
    def test_monotone_iterations_enforced(self):
        with pytest.raises(ValueError):
            ConvergenceRecord("t", "m", 0, [(0, 1.0, 1.0), (0, 0.5, 0.5)])

    def test_first_iteration_reaching(self):
        r = rec([0.5, 0.2, 0.04, 0.01])
        assert r.first_iteration_reaching(0.05) == 20
        assert r.first_iteration_reaching(1e-9) is None


class TestAggregate:
    def test_single_record_mean_only(self):
        r = rec([0.5, 0.2])
        agg = aggregate([r])
        np.testing.assert_array_equal(agg.mean, [0.5, 0.2])
        assert agg.ci_lo is None and agg.ci_hi is None

    def test_two_identical_records_zero_width(self):
        agg = aggregate([rec([0.5, 0.2]), rec([0.5, 0.2], seed=1)])
        np.testing.assert_allclose(agg.ci_hi - agg.ci_lo, 0.0, atol=1e-15)

    def test_scaled_pair_mean(self):
        c = np.array([0.4, 0.1])
        agg = aggregate([rec(c), rec(3 * c, seed=1)])
        np.testing.assert_allclose(agg.mean, 2 * c)

    def test_permutation_invariant_mean(self):
        rs = [rec([0.5, 0.2]), rec([0.3, 0.15], seed=1), rec([0.7, 0.4], seed=2)]
        a = aggregate(rs)
        b = aggregate(rs[::-1])
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_mismatched_grids_rejected(self):
        a = rec([0.5, 0.2])
        b = ConvergenceRecord("t", "m", 1, [(0, 0.5, 1.0), (7, 0.2, 0.5)])
        with pytest.raises(ValueError):
            aggregate([a, b])


class TestPca:
    def test_exact_two_dim_affine_data(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 16))
        center = rng.normal(size=16)
        coeffs = rng.normal(size=(30, 2))
        X = center + coeffs @ np.stack([u, v])
        proj = pca_fit(X)
        Y = project_trajectory(proj, X)
        recon = proj.center + Y @ proj.basis
        np.testing.assert_allclose(recon, X, atol=1e-10)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(1)
        proj = pca_fit(rng.normal(size=(20, 64)))
        gram = proj.basis @ proj.basis.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        proj = pca_fit(rng.normal(size=(12, 8)))
        for row in proj.basis:
            assert row[np.argmax(np.abs(row))] > 0

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((5, 8)))

    def test_matches_bruteforce_eigendecomposition(self):
        # independent oracle: eigenvectors of the sample covariance
        from madpde import oracles
        etas = np.linspace(0, 2, 21)
        x = np.linspace(-np.pi, np.pi, 128)
        X = np.stack([oracles.ode_exact(e, x) for e in etas])
        proj = pca_fit(X)
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc
        evals, evecs = np.linalg.eigh(cov)
        evr_brute = (evals[-1] + evals[-2]) / evals.sum()
        _, s, _ = np.linalg.svd(Xc)
        evr_svd = (s[0] ** 2 + s[1] ** 2) / np.sum(s ** 2)
        assert evr_svd == pytest.approx(evr_brute, rel=1e-10)
        for k in (1, 2):
            v = evecs[:, -k]
            b = proj.basis[k - 1]
            assert abs(abs(v @ b)) == pytest.approx(1.0, abs=1e-8)

    def test_rank2_truncation_optimality(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 128))
        proj = pca_fit(X)
        Xc = X - proj.center
        err = np.linalg.norm(Xc - project_trajectory(proj, X) @ proj.basis)
        s = np.linalg.svd(Xc, compute_uv=False)
        assert err <= np.sqrt(np.sum(s[2:] ** 2)) + 1e-9

    def test_projection_of_center_is_origin(self):
        rng = np.random.default_rng(4)
        proj = pca_fit(rng.normal(size=(9, 16)))
        np.testing.assert_allclose(project_trajectory(proj, proj.center),
                                   np.zeros((1, 2)), atol=1e-12)

    def test_projection_is_affine(self):
        rng = np.random.default_rng(5)
        proj = pca_fit(rng.normal(size=(9, 16)))
        a, b = rng.normal(size=(2, 16))
        pa, pb = project_trajectory(proj, np.stack([a, b]))
        mid = project_trajectory(proj, 0.5 * (a + b))[0]
        np.testing.assert_allclose(mid, 0.5 * (pa + pb), atol=1e-12)

    def test_length_mismatch_rejected(self):
        proj = pca_fit(np.random.default_rng(6).normal(size=(5, 16)))
        with pytest.raises(ValueError):
            project_trajectory(proj, np.zeros(17))


class TestCsvIO:
    def test_convergence_roundtrip(self, tmp_path):
        rs = [rec([0.5, 0.25], task_id="s2-0"), rec([0.7, 0.5], task_id="s2-1",
                                                    seed=3)]
        p = str(tmp_path / "conv.csv")
        benchviz.write_convergence_csv(p, rs)
        back = benchviz.read_convergence_csv(p)
        assert {r.task_id for r in back} == {"s2-0", "s2-1"}
        by_id = {r.task_id: r for r in back}
        assert by_id["s2-0"].series == rs[0].series

    def test_manifold_csv(self, tmp_path):
        p = str(tmp_path / "manifold.csv")
        benchviz.write_manifold_csv(p, {"traj": np.array([[0.0, 1.0], [2.0, 3.0]])})
        lines = Path(p).read_text().splitlines()
        assert lines[0] == "label,step,pc1,pc2"
        assert len(lines) == 3

    def test_summary_json(self):
        rs = [rec([0.5, 0.2]), rec([0.3, 0.1], seed=1)]
        s = benchviz.summary_json({"mad_l": rs})
        assert s["mad_l"]["final_mean"] == pytest.approx(0.15)
        assert "final_ci_lo" in s["mad_l"]
        single = benchviz.summary_json({"mad_l": rs[:1]})
        assert "final_ci_lo" not in single["mad_l"]
