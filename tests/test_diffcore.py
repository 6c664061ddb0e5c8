import gc
import platform
import resource
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from madpde import diffcore as dc
from madpde import grf, network, problems, trainer
from madpde.diffcore import Jet2, Tape


def fd1(f, x, h=1e-4):
    return (f(x + h) - f(x - h)) / (2 * h)


def fd2(f, x, h=1e-4):
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def rel_err(a, b):
    denom = max(abs(b), 1e-12)
    return abs(a - b) / denom


# a small scalar expression exercising every jet rule
def expr(x):
    if isinstance(x, Jet2):
        t1 = dc.jet_mul(dc.jet_sin(x), x)
        t2 = dc.jet_mul(dc.jet_sin(dc.jet_mul(x, jetify(0.3))), dc.jet_add(x, jetify(2.5)))
        d = dc.jet_sub(x, jetify(0.2))
        t3 = dc.jet_mul(d, dc.jet_mul(d, d))
        return dc.jet_sub(dc.jet_add(t1, t2), t3)
    return np.sin(x) * x + np.sin(0.3 * x) * (x + 2.5) - (x - 0.2) ** 3


def jetify(c):
    return dc.jet_const(np.asarray(c, dtype=float))


class TestJetRules:
    def test_sin_at_zero(self):
        j = dc.jet_sin(Jet2(np.asarray(0.0), np.asarray(1.0), np.asarray(0.0)))
        assert j.val == pytest.approx(0.0)
        assert dc.value_of(j.d1) == pytest.approx(1.0)
        assert dc.value_of(j.d2) == pytest.approx(0.0)

    def test_sin_at_half_pi(self):
        j = dc.jet_sin(Jet2(np.asarray(np.pi / 2), np.asarray(1.0), np.asarray(0.0)))
        assert j.val == pytest.approx(1.0)
        assert dc.value_of(j.d1) == pytest.approx(0.0, abs=1e-15)
        assert dc.value_of(j.d2) == pytest.approx(-1.0)

    def test_mul_leibniz(self):
        a = Jet2(np.asarray(1.3), np.asarray(0.7), np.asarray(-0.2))
        b = Jet2(np.asarray(-0.5), np.asarray(2.0), np.asarray(0.9))
        j = dc.jet_mul(a, b)
        a0, a1, a2 = 1.3, 0.7, -0.2
        b0, b1, b2 = -0.5, 2.0, 0.9
        assert dc.value_of(j.val) == pytest.approx(a0 * b0)
        assert dc.value_of(j.d1) == pytest.approx(a0 * b1 + a1 * b0)
        assert dc.value_of(j.d2) == pytest.approx(a0 * b2 + 2 * a1 * b1 + a2 * b0)

    def test_linearity_of_jets(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal()
            a = Jet2(np.asarray(x), np.asarray(1.0), np.asarray(0.0))
            ja = dc.jet_sin(a)
            jb = dc.jet_mul(a, a)
            jsum = dc.jet_add(ja, jb)
            assert dc.value_of(jsum.val) == pytest.approx(np.sin(x) + x * x)
            assert dc.value_of(jsum.d1) == pytest.approx(
                dc.value_of(ja.d1) + dc.value_of(jb.d1))

    def test_constant_has_zero_derivatives(self):
        j = dc.jet_const(np.asarray(4.2))
        assert j.d1 == 0.0 and j.d2 == 0.0

    @pytest.mark.parametrize("x0", [-1.7, -0.3, 0.5, 1.1, 2.4])
    def test_jets_match_finite_differences(self, x0):
        jx = Jet2(np.asarray(x0), np.asarray(1.0), np.asarray(0.0))
        j = expr(jx)
        d1_fd = fd1(expr, x0)
        d2_fd = fd2(expr, x0)
        assert rel_err(float(dc.value_of(j.d1)), d1_fd) <= 1e-5
        assert rel_err(float(dc.value_of(j.d2)), d2_fd) <= 1e-4


class TestTapeGradient:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.constant(3.0)
        y = dc.mul(x, x)
        (g,) = tape.gradient(y, [x])
        assert g == pytest.approx(6.0)

    def test_sin_at_zero(self):
        tape = Tape()
        x = tape.constant(0.0)
        y = dc.sin(x)
        (g,) = tape.gradient(y, [x])
        assert g == pytest.approx(1.0)

    def test_gradient_of_sum_is_sum_of_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.normal(size=4)

            def grad_of(which):
                """The gradient of f1, f2 or their sum, on a tape of its own."""
                tape = Tape()
                x = tape.constant(v)
                f1 = dc.vsum(dc.mul(dc.sin(x), x))
                f2 = dc.vsum(dc.cos(dc.mul(x, 0.2)))
                out = {"f1": f1, "f2": f2, "total": dc.add(f1, f2)}[which]
                return tape.gradient(out, [x])[0]

            np.testing.assert_allclose(grad_of("total"), grad_of("f1") + grad_of("f2"),
                                       rtol=1e-15, atol=1e-15)

    def test_matmul_and_reductions_vs_fd(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 3))
        W0 = rng.normal(size=(3, 4))

        def loss_of(Wflat):
            W = Wflat.reshape(3, 4)
            return float(np.mean(np.sin(X @ W) ** 2))

        tape = Tape()
        W = tape.constant(W0)
        s = dc.sin(dc.matmul(X, W))
        y = dc.vmean(dc.mul(s, s))
        (g,) = tape.gradient(y, [W])
        fd = np.zeros(12)
        flat = W0.ravel().copy()
        for i in range(12):
            e = np.zeros(12)
            e[i] = 1e-6
            fd[i] = (loss_of(flat + e) - loss_of(flat - e)) / 2e-6
        np.testing.assert_allclose(g.ravel(), fd, rtol=1e-6, atol=1e-9)

    def test_second_sweep_raises(self):
        tape = Tape()
        x = tape.constant(1.5)
        y = dc.mul(x, dc.sin(x))
        (g,) = tape.gradient(y, [x])
        assert g == pytest.approx(np.sin(1.5) + 1.5 * np.cos(1.5))
        assert all(node.vjps == () for node in tape.nodes)
        with pytest.raises(dc.DiffError, match="released"):
            tape.gradient(y, [x])

    def test_output_from_other_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.constant(1.0)
        y = dc.sin(x)
        with pytest.raises(dc.DiffError):
            t2.gradient(y, [x])

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = tape.constant(np.ones(3))
        y = dc.sin(x)
        with pytest.raises(dc.DiffError):
            tape.gradient(y, [x])

    def test_unused_wrt_gets_zero(self):
        tape = Tape()
        x = tape.constant(1.0)
        z = tape.constant(2.0)
        y = dc.sin(x)
        gx, gz = tape.gradient(y, [x, z])
        assert gz == pytest.approx(0.0)

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(5, 3))
        tape = Tape()
        b = tape.constant(rng.normal(size=3))
        shifted = dc.add(A, b)
        y = dc.vsum(dc.mul(shifted, shifted))
        (g,) = tape.gradient(y, [b])
        np.testing.assert_allclose(g, 2 * (A + b.value).sum(axis=0), rtol=1e-14)

    def test_size_one_axis_gradient_sums_over_that_axis(self):
        tape = Tape()
        x = tape.constant(np.arange(3.0).reshape(3, 1))
        y = tape.constant(np.ones((3, 4)))
        (g,) = tape.gradient(dc.vsum(dc.add(x, y)), [x])
        assert g.shape == (3, 1)
        assert np.array_equal(g, np.full((3, 1), 4.0))

    @pytest.mark.parametrize("op", [dc.add, dc.sub, dc.mul, dc.matmul,
                                    lambda a, b: dc.concat_cols([a, b])],
                             ids=["add", "sub", "mul", "matmul", "concat_cols"])
    def test_operands_on_two_tapes_rejected(self, op):
        # recorded on the first operand's tape, the second operand's index
        # would name another node there and give a wrong gradient
        t1, t2 = Tape(), Tape()
        a = t1.constant(np.ones((2, 2)))
        b = t2.constant(np.full((2, 2), 2.0))
        with pytest.raises(dc.DiffError, match="different tapes"):
            op(a, b)
        assert len(t1) == len(t2) == 1

    def test_repeat_rows_and_concat_cols(self):
        tape = Tape()
        Z = tape.constant(np.arange(6.0).reshape(3, 2))
        R = dc.repeat_rows(Z, 4)
        assert R.value.shape == (12, 2)
        C = dc.concat_cols([np.ones((12, 1)), R])
        y = dc.vsum(dc.mul(C, C))
        (g,) = tape.gradient(y, [Z])
        np.testing.assert_allclose(g, 8 * Z.value, rtol=1e-14)

    def test_operators_record_nothing(self):
        # only the module's functions record nodes; numpy would otherwise
        # broadcast an array over the handle and record one node per element
        tape = Tape()
        x = tape.constant(np.ones(3))
        for apply in (lambda: np.ones(3) + x, lambda: x * 2.0, lambda: 1.0 - x,
                      lambda: -x):
            with pytest.raises(TypeError):
                apply()
        assert len(tape) == 1


class TestSineKernel:
    """float64 sin and cos come from t = tan(x/2) (``diffcore.sincos_array``)."""

    ULP = np.finfo(np.float64).eps  # ulp of 1

    def test_absolute_error_within_two_ulp_of_one(self):
        rng = np.random.default_rng(11)
        n = 10 ** 6
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 8.0, n)
        s, c = dc.sincos_array(x)
        if np.finfo(np.longdouble).nmant > 52:
            xl, bound = x.astype(np.longdouble), 2.0
        else:  # no wider type: float64 libm, itself within 0.5 ulp
            xl, bound = x, 2.5
        assert np.max(np.abs(s - np.sin(xl))) <= bound * self.ULP
        assert np.max(np.abs(c - np.cos(xl))) <= bound * self.ULP
        np.testing.assert_array_equal(dc.sin_array(x), s)

    def test_zeros_infinities_and_nan(self):
        with np.errstate(invalid="ignore"):
            s, c = dc.sincos_array(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert s[0] == 0.0 and not np.signbit(s[0])
        assert s[1] == 0.0 and np.signbit(s[1])
        assert c[0] == 1.0 and c[1] == 1.0
        assert np.isnan(s[2:]).all() and np.isnan(c[2:]).all()

    def test_zero_d_noncontiguous_and_aliased_out(self):
        x = np.random.default_rng(12).normal(size=(6, 8)) * 4.0
        s, c = dc.sincos_array(x)
        s0, c0 = dc.sincos_array(np.array(x[2, 3]))
        assert (s0, c0) == (s[2, 3], c[2, 3])
        assert dc.sin_array(np.array(x[2, 3])) == s[2, 3]
        cols = x[:, ::3]
        assert not cols.flags.c_contiguous
        np.testing.assert_array_equal(dc.sincos_array(cols)[1], c[:, ::3])
        np.testing.assert_array_equal(dc.sin_array(cols), s[:, ::3])
        y = x.copy()
        assert dc.sin_array(y, out=y) is y
        np.testing.assert_array_equal(y, s)
        view = x.copy()[:, ::2]
        dc.sin_array(view, out=view)
        np.testing.assert_array_equal(view, s[:, ::2])

    def test_float32_is_numpy_bit_for_bit(self):
        x = (np.random.default_rng(13).normal(size=(50, 7)) * 5.0).astype(np.float32)
        s, c = dc.sincos_array(x)
        assert s.dtype == c.dtype == np.float32
        np.testing.assert_array_equal(s, np.sin(x))
        np.testing.assert_array_equal(c, np.cos(x))
        y = x.copy()
        dc.sin_array(y, out=y)
        np.testing.assert_array_equal(y, np.sin(x))

    def test_tape_and_plain_paths_share_the_kernel(self):
        v = np.random.default_rng(5).normal(size=(4, 3)) * 3.0
        s_ref, c_ref = dc.sincos_array(v)
        s, c = dc.sincos(Tape().constant(v))
        assert (s.op, c.op) == ("sin", "cos")
        for got, want in ((s.value, s_ref), (c.value, c_ref),
                          (dc.sin(Tape().constant(v)).value, s_ref),
                          (dc.cos(Tape().constant(v)).value, c_ref),
                          *zip(dc.sincos(v), (s_ref, c_ref)),
                          (dc.sin(v), s_ref), (dc.cos(v), c_ref)):
            np.testing.assert_array_equal(got, want)


class TestSincos:
    def test_vjps_match_central_differences(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(3, 4)) * 2.0
        ws, wc = rng.normal(size=(2, 3, 4))

        def f(x):
            return float(np.sum(ws * np.sin(x) + wc * np.cos(x)))

        tape = Tape()
        x = tape.constant(v)
        s, c = dc.sincos(x)
        y = dc.add(dc.vsum(dc.mul(s, ws)), dc.vsum(dc.mul(c, wc)))
        (g,) = tape.gradient(y, [x])
        h = 1e-6
        fd = np.zeros_like(v)
        for i in np.ndindex(v.shape):
            e = np.zeros_like(v)
            e[i] = h
            fd[i] = (f(v + e) - f(v - e)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-7, atol=1e-9)


class TestTapeLifetime:
    """Records hold no back-references, so reference counting alone frees a
    tape once its last handle is dropped (the cyclic collector is off)."""

    def test_tape_dies_with_its_last_var(self):
        gc.disable()
        try:
            tape = Tape()
            x = tape.constant(np.arange(3.0))
            y = dc.vsum(dc.mul(dc.sin(x), x))
            tape.gradient(y, [x])
            ref = weakref.ref(tape)
            del tape, x
            assert ref() is not None  # y still holds the tape
            del y
            assert ref() is None
        finally:
            gc.enable()

    def test_loss_tape_dies_after_gradients(self):
        rng = np.random.default_rng(2)
        tasks = [problems.BurgersTask(grf.sample_grf(grf.BURGERS_GRF, rng), 0.01)
                 for _ in range(2)]
        net_cfg = network.NetworkConfig(input_dim=2, latent_dim=3, hidden_layers=2,
                                        width=8, input_encoding="periodic_x")
        cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=8, M_bc=4)
        batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in tasks]
        params = network.init_siren(net_cfg, 0)
        Z = rng.normal(size=(2, 3))
        gc.disable()
        try:
            loss = trainer.assemble_multitask_loss(tasks, batches, params, Z, cfg)
            loss.gradients()
            ref = weakref.ref(loss.tape)
            del loss
            assert ref() is None
        finally:
            gc.enable()


class TestTapeKeepsWhatItsSweepReads:
    """A node holds its value weakly, so an intermediate that no backward
    closure reads dies with the caller's handle; the one sweep of a tape
    frees the closures as it goes."""

    def test_unread_intermediates_die_with_their_handles(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(7, 4))
        W0, b0 = rng.normal(size=(4, 3)), rng.normal(size=3)
        gc.disable()
        try:
            tape = Tape()
            W, b = tape.constant(W0), tape.constant(b0)
            lin = dc.matmul(X, W)
            pre = dc.add(lin, b)
            refs = [weakref.ref(lin.value), weakref.ref(pre.value)]
            y = dc.vsum(dc.sin(pre))
            del lin, pre
            assert [r() for r in refs] == [None, None]
            assert [tape.nodes[i].value.size for i in (2, 3)] == [0, 0]
            gW, gb = tape.gradient(y, [W, b])
        finally:
            gc.enable()
        c = dc.sincos_array(X @ W0 + b0)[1]  # the sweep's own arithmetic, op for op
        np.testing.assert_array_equal(gW, X.T @ c)
        np.testing.assert_array_equal(gb, c.sum(axis=0))

    @staticmethod
    def probe(variant):
        """Two tasks of ``variant`` at the shape of the benchmark's
        gradient gate (latent 3, width 6 x 2, M_r 5, M_bc 3)."""
        rng = np.random.default_rng([3, len(variant)])
        if variant == "ode_shift":
            tasks = [problems.OdeShiftTask(e) for e in rng.uniform(0.0, 2.0, 2)]
        elif variant == "burgers":
            tasks = [problems.BurgersTask(grf.sample_grf(grf.BURGERS_GRF, rng), 0.01)
                     for _ in range(2)]
        else:
            tasks = [problems.LaplaceTriangleTask(
                tuple((0.3, 2.4, 4.4) + rng.uniform(-0.2, 0.2, 3)),
                grf.sample_grf(grf.LAPLACE_GRF, rng)) for _ in range(2)]
        net_cfg = network.NetworkConfig(
            input_dim=tasks[0].input_dim, latent_dim=3, hidden_layers=2, width=6,
            first_layer_omega=3.0, input_encoding=tasks[0].encoding)
        cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=5, M_bc=3,
                                  inv_sigma2=1e-2)
        batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in tasks]
        Z = rng.normal(0.0, 0.3, size=(2, 3))
        return tasks, batches, network.init_siren(net_cfg, 3), Z, cfg

    @pytest.mark.parametrize("trainable", [True, False], ids=["pretrain", "latent"])
    @pytest.mark.parametrize("variant", ["ode_shift", "burgers", "laplace_triangle"])
    def test_releasing_sweep_is_bit_identical_and_spent(self, variant, trainable):
        tasks, batches, params, Z, cfg = self.probe(variant)

        def build():
            return trainer.assemble_multitask_loss(tasks, batches, params, Z, cfg,
                                                   trainable_theta=trainable)

        ref = build()
        wrt = ref.theta + [ref.z_var]
        *g_theta, g_z = ref.tape.gradient(ref.total, wrt)
        loss = build()
        theta, z = loss.gradients()
        np.testing.assert_array_equal(z, g_z)
        if trainable:
            np.testing.assert_array_equal(
                theta, np.concatenate([g.ravel() for g in g_theta]))
        else:
            assert theta is None and g_theta == []
        # only the caller's handles keep values: leaves and the total
        kept = sum(n.value.nbytes for n in loss.tape.nodes if n.parents)
        assert kept <= 8 * len(loss.tape.nodes), kept
        with pytest.raises(dc.DiffError, match="released"):
            loss.gradients()

    def test_step_peak_memory(self):
        """One step at the ``TestSteadyHeap`` shape: the weakly held node
        values and the sweep that frees closures as it goes bring tracemalloc's peak from
        20.7 MB down to 13.0 MB."""
        rng = np.random.default_rng(5)
        tasks = [problems.BurgersTask(grf.sample_grf(grf.BURGERS_GRF, rng), 0.01)
                 for _ in range(2)]
        net_cfg = network.NetworkConfig(input_dim=2, latent_dim=4, hidden_layers=3,
                                        width=64, input_encoding="periodic_x")
        cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=400, M_bc=50)
        batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in tasks]
        params = network.init_siren(net_cfg, 0)
        Z = rng.normal(size=(2, 4))

        def step():
            trainer.assemble_multitask_loss(tasks, batches, params, Z,
                                            cfg).gradients()

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak < 16.0, peak


GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestSteadyHeap:
    """Importing diffcore pins glibc's malloc thresholds, so a freed tape
    stays in the heap and the next step does not fault it back in."""

    @pytest.mark.skipif(not GLIBC, reason="mallopt thresholds are glibc's")
    def test_steady_step_takes_no_fresh_pages(self):
        rng = np.random.default_rng(5)
        tasks = [problems.BurgersTask(grf.sample_grf(grf.BURGERS_GRF, rng), 0.01)
                 for _ in range(2)]
        net_cfg = network.NetworkConfig(input_dim=2, latent_dim=4, hidden_layers=3,
                                        width=64, input_encoding="periodic_x")
        cfg = trainer.TrainConfig(lr0=1e-3, total_iters=1, M_r=400, M_bc=50)
        batches = [problems.sample_batch(t, cfg.M_r, cfg.M_bc, rng) for t in tasks]
        params = network.init_siren(net_cfg, 0)
        Z = rng.normal(size=(2, 4))

        def step():
            trainer.assemble_multitask_loss(tasks, batches, params, Z,
                                            cfg).gradients()

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100, faults

    def test_libc_without_mallopt_is_left_alone(self):
        assert dc.pin_heap(object()) is False


class TestBlasThreads:
    """Importing diffcore finds, without calling it, the BLAS thread-count
    setter that grouped training steps pin."""

    def test_library_without_setter_gives_none(self):
        assert dc.blas_threads([]) is None
        assert dc.blas_threads([object()]) is None

    def test_first_library_with_both_functions_wins(self):
        def get():
            return 3

        def put(n):
            pass

        only_get = types.SimpleNamespace(openblas_get_num_threads=get)
        both = types.SimpleNamespace(openblas_get_num_threads=get,
                                     openblas_set_num_threads=put)
        assert dc.blas_threads([only_get, both]) == (get, put)

    @pytest.mark.skipif(dc.BLAS_THREADS is None, reason="no BLAS thread setter found")
    def test_found_setter_sets_the_count(self):
        get, put = dc.BLAS_THREADS
        before = get()
        put(1)
        try:
            assert get() == 1
        finally:
            put(before)
        assert get() == before


class TestForwardOverReverse:
    """d/dtheta of jet-computed input derivatives must match FD over theta."""

    def test_dtheta_of_dudx(self):
        rng = np.random.default_rng(21)
        w0 = rng.normal(size=5)
        x0 = 0.7

        def dudx_at(w):
            # u(x) = w0*sin(w1*x + w2) + w3*x^2*w4  -> du/dx analytic via jets
            jx = Jet2(np.asarray(x0), np.asarray(1.0), np.asarray(0.0))
            inner = dc.jet_add(dc.jet_mul(jetify(w[1]), jx), jetify(w[2]))
            u = dc.jet_add(
                dc.jet_mul(jetify(w[0]), dc.jet_sin(inner)),
                dc.jet_mul(jetify(w[3] * w[4]), dc.jet_mul(jx, jx)),
            )
            return float(dc.value_of(u.d1))

        tape = Tape()
        w = tape.constant(w0)
        jx = Jet2(np.asarray(x0), np.asarray(1.0), np.asarray(0.0))
        w_parts = [dc.vsum(dc.mul(w, e)) for e in np.eye(5)]  # w[i] as a node
        inner = dc.jet_add(dc.jet_mul(Jet2(w_parts[1]), jx), Jet2(w_parts[2]))
        u = dc.jet_add(
            dc.jet_mul(Jet2(w_parts[0]), dc.jet_sin(inner)),
            dc.jet_mul(Jet2(dc.mul(w_parts[3], w_parts[4])), dc.jet_mul(jx, jx)),
        )
        (g,) = tape.gradient(dc.vsum(u.d1), [w])

        for i in range(5):
            e = np.zeros(5)
            e[i] = 1e-4
            fd = (dudx_at(w0 + e) - dudx_at(w0 - e)) / 2e-4
            assert rel_err(g[i], fd) <= 1e-4
