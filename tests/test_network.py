import hashlib

import numpy as np
import pytest

from madpde import diffcore as dc
from madpde import network as net
from madpde.diffcore import Jet2, Tape
from madpde.network import ModelParams, NetworkConfig


def small_cfg(**kw):
    base = dict(input_dim=1, latent_dim=1, hidden_layers=2, width=8)
    base.update(kw)
    return NetworkConfig(**base)


class TestInit:
    def test_deterministic_per_seed(self):
        cfg = small_cfg()
        a = net.init_siren(cfg, 42)
        b = net.init_siren(cfg, 42)
        assert np.array_equal(a.flat, b.flat)
        c = net.init_siren(cfg, 43)
        assert not np.array_equal(a.flat, c.flat)

    def test_param_count_five_by_64(self):
        cfg = NetworkConfig(input_dim=1, latent_dim=1, hidden_layers=5, width=64)
        assert net.param_count(cfg) == 16897

    def test_hidden_weight_stddev(self):
        # U(-a, a) has stddev a/sqrt(3); aggregate ~1e5 draws from one matrix
        cfg = NetworkConfig(input_dim=1, latent_dim=0, hidden_layers=2, width=316)
        params = net.init_siren(cfg, 0)
        W_hidden = params.layers()[1][0]
        assert W_hidden.size >= 99000
        target = np.sqrt(6.0 / 316) / np.sqrt(3.0)
        assert abs(W_hidden.std() - target) / target < 0.10

    def test_first_layer_scaled_by_omega(self):
        cfg = small_cfg(first_layer_omega=30.0)
        params = net.init_siren(cfg, 7)
        W0 = params.layers()[0][0]
        fan_in = cfg.encoded_dim + cfg.latent_dim
        assert np.max(np.abs(W0)) <= 30.0 / fan_in + 1e-12
        assert np.max(np.abs(W0)) > 1.0 / fan_in  # omega actually applied


class TestForward:
    def test_zero_params_give_zero_output(self):
        cfg = small_cfg()
        params = ModelParams(np.zeros(net.param_count(cfg)), cfg)
        out = net.forward(params, np.array([[0.3]]), np.array([0.5]))
        assert np.all(out == 0.0)

    def test_concatenation_order(self):
        # near-identity sine layers: 1e6*sin(1e-6*v) ~ v recovers [x ; z]
        cfg = NetworkConfig(input_dim=2, latent_dim=1, hidden_layers=1, width=3,
                            output_dim=3)
        flat = np.zeros(net.param_count(cfg))
        params = ModelParams(flat, cfg)
        (W0, _), (W1, _) = params.layers()
        W0[:] = np.eye(3) * 1e-6
        W1[:] = np.eye(3) * 1e6
        x = np.array([[0.2, -0.4]])
        z = np.array([0.9])
        out = net.forward(params, x, z)
        np.testing.assert_allclose(out, [[0.2, -0.4, 0.9]], atol=1e-9)

    def test_periodic_encoding_matches_at_period(self):
        cfg = NetworkConfig(input_dim=2, latent_dim=2, hidden_layers=3, width=16,
                            input_encoding="periodic_x")
        params = net.init_siren(cfg, 3)
        z = np.random.default_rng(0).normal(size=2)
        a = net.forward(params, np.array([[0.0, 0.37]]), z)
        b = net.forward(params, np.array([[1.0, 0.37]]), z)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        cfg = small_cfg()
        params = net.init_siren(cfg, 0)
        with pytest.raises(ValueError):
            net.forward(params, np.array([[0.1, 0.2]]), np.array([0.0]))
        with pytest.raises(ValueError):
            net.forward(params, np.array([[0.1]]), np.array([0.0, 1.0]))


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestForwardDtype:
    @staticmethod
    def out_of_place(params, x, z):
        cfg = params.config
        x, z = net._check_dims(cfg, x, z)
        h = np.concatenate([net.encode(cfg, x), z], axis=1)
        layers = params.layers()
        for W, b in layers[:-1]:
            h = dc.sin_array(h @ W + b)
        W, b = layers[-1]
        return h @ W + b

    @staticmethod
    def build(encoding, latent_dim, seed=0):
        cfg = NetworkConfig(input_dim=2, latent_dim=latent_dim, hidden_layers=3,
                            width=32, input_encoding=encoding)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, (300, 2))
        z = rng.normal(size=latent_dim) if latent_dim else None
        return net.init_siren(cfg, seed), x, z

    @pytest.mark.parametrize("encoding", ["identity", "periodic_x"])
    @pytest.mark.parametrize("latent_dim", [0, 5])
    def test_default_dtype_is_the_out_of_place_formula(self, encoding, latent_dim):
        params, x, z = self.build(encoding, latent_dim)
        out = net.forward(params, x, z)
        assert out.dtype == np.float64
        assert np.array_equal(out, self.out_of_place(params, x, z))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("encoding", ["identity", "periodic_x"])
    def test_writes_no_input(self, dtype, encoding):
        params, x, z = self.build(encoding, 5, seed=1)
        z_rows = np.tile(z, (x.shape[0], 1))
        before = [_sha(a) for a in (params.flat, x, z, z_rows)]
        for zz in (z, z_rows):
            out = net.forward(params, x, zz, dtype)
            assert out.dtype == np.float64 and out.shape == (x.shape[0], 1)
        assert [_sha(a) for a in (params.flat, x, z, z_rows)] == before

    def test_float32_close_to_float64(self):
        params, x, z = self.build("periodic_x", 5, seed=2)
        a = net.forward(params, x, z)
        b = net.forward(params, x, z, np.float32)
        assert not np.array_equal(a, b)
        assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(a))


class TestForwardJets:
    def test_zero_params_give_zero_jets(self):
        cfg = small_cfg()
        params = ModelParams(np.zeros(net.param_count(cfg)), cfg)
        jets, _ = net.forward_jets(params, np.array([[0.4]]), np.array([0.2]), [0])
        j = jets[0]
        assert np.all(dc.value_of(j.val) == 0.0)
        assert np.all(dc.value_of(j.d1) == 0.0)
        assert np.all(dc.value_of(j.d2) == 0.0)

    def test_hand_built_sine_net(self):
        # u(x) = sin(x): one hidden unit, W=1, passthrough output
        cfg = NetworkConfig(input_dim=1, latent_dim=0, hidden_layers=1, width=1)
        flat = np.zeros(net.param_count(cfg)).copy()
        params = ModelParams(flat, cfg)
        (W0, b0), (W1, b1) = params.layers()
        W0[:] = 1.0
        W1[:] = 1.0
        jets, _ = net.forward_jets(params, np.array([[0.0]]), None, [0])
        assert dc.value_of(jets[0].d1)[0, 0] == pytest.approx(1.0)
        assert dc.value_of(jets[0].d2)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_value_channel_matches_forward(self):
        cfg = small_cfg(hidden_layers=3, width=12)
        params = net.init_siren(cfg, 5)
        x = np.linspace(-1, 1, 7).reshape(-1, 1)
        z = np.array([0.3])
        jets, _ = net.forward_jets(params, x, z, [0])
        np.testing.assert_allclose(dc.value_of(jets[0].val),
                                   net.forward(params, x, z), rtol=1e-15, atol=0)

    def test_periodic_derivative_matches_at_period(self):
        cfg = NetworkConfig(input_dim=2, latent_dim=1, hidden_layers=2, width=8,
                            input_encoding="periodic_x")
        params = net.init_siren(cfg, 9)
        z = np.array([0.1])
        ja, _ = net.forward_jets(params, np.array([[0.0, 0.5]]), z, [0])
        jb, _ = net.forward_jets(params, np.array([[1.0, 0.5]]), z, [0])
        np.testing.assert_allclose(dc.value_of(ja[0].d1), dc.value_of(jb[0].d1),
                                   atol=1e-11)

    @pytest.mark.parametrize("encoding,input_dim",
                             [("identity", 2), ("periodic_x", 2), ("unit_pi", 2)])
    def test_jets_match_finite_differences(self, encoding, input_dim):
        # moderate first-layer frequency keeps the FD oracle itself accurate
        # (its truncation error grows with the cube of the net's frequency)
        cfg = NetworkConfig(input_dim=input_dim, latent_dim=3, hidden_layers=3,
                            width=16, input_encoding=encoding, first_layer_omega=6.0)
        params = net.init_siren(cfg, 11)
        rng = np.random.default_rng(4)
        z = rng.normal(size=3) * 0.3
        x0 = rng.uniform(0.2, 0.8, size=(5, input_dim))
        h = 1e-4
        for d in range(input_dim):
            jets, _ = net.forward_jets(params, x0, z, [d])
            e = np.zeros(input_dim)
            e[d] = h
            up = net.forward(params, x0 + e, z)
            um = net.forward(params, x0 - e, z)
            u0 = net.forward(params, x0, z)
            fd1 = (up - um) / (2 * h)
            fd2 = (up - 2 * u0 + um) / (h * h)
            np.testing.assert_allclose(dc.value_of(jets[d].d1), fd1, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(dc.value_of(jets[d].d2), fd2, rtol=1e-4, atol=1e-5)

    def test_weight_gradient_of_dudx_matches_fd(self):
        cfg = NetworkConfig(input_dim=1, latent_dim=2, hidden_layers=2, width=6)
        params = net.init_siren(cfg, 13)
        z = np.array([0.2, -0.1])
        x = np.array([[0.5], [0.8]])

        jets, weights = net.forward_jets(params, x, z, [0])
        target = dc.vsum(jets[0].d1)
        grads = target.tape.gradient(target, [v for pair in weights for v in pair])
        gflat = np.concatenate([g.ravel() for g in grads])

        h = 1e-5
        fd = np.zeros_like(params.flat)
        for i in range(params.flat.size):
            pp = ModelParams(params.flat.copy(), params.config)
            pp.flat[i] += h
            pm = ModelParams(params.flat.copy(), params.config)
            pm.flat[i] -= h
            jp, _ = net.forward_jets(pp, x, z, [0])
            jm, _ = net.forward_jets(pm, x, z, [0])
            fd[i] = (dc.value_of(jp[0].d1).sum() - dc.value_of(jm[0].d1).sum()) / (2 * h)
        np.testing.assert_allclose(gflat, fd, rtol=1e-4, atol=1e-7)

    def test_order_one_skips_second_derivative(self):
        cfg = small_cfg()
        params = net.init_siren(cfg, 1)
        jets, _ = net.forward_jets(params, np.array([[0.2]]), np.array([0.1]),
                                   [0], orders={0: 1})
        assert jets[0].d2 is None

    def test_bad_direction_raises(self):
        cfg = small_cfg()
        params = net.init_siren(cfg, 1)
        with pytest.raises(ValueError):
            net.forward_jets(params, np.array([[0.2]]), np.array([0.1]), [3])


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestSineJets:
    def test_value_only_pass_records_no_cos_or_neg(self):
        cfg = small_cfg(hidden_layers=3)
        params = net.init_siren(cfg, 2)
        x = np.array([[0.1], [0.4], [0.7]])
        z = np.array([[0.2], [0.3], [-0.1]])
        tape = Tape()
        weights = net.stage_network(tape, params)
        out = net.jet_forward(cfg, weights, x, tape.constant(z), {})[None]
        ops = [node.op for node in tape.nodes]
        assert ops.count("sin") == cfg.hidden_layers
        assert "cos" not in ops and "neg" not in ops
        np.testing.assert_allclose(out.val.value, net.forward(params, x, z),
                                   rtol=1e-15, atol=0)

    def test_matches_generic_jet_sin_with_two_second_order_directions(self):
        rng = np.random.default_rng(8)
        values = [2.0 * rng.normal(size=(6, 5))] + [rng.normal(size=(6, 5))
                                                   for _ in range(4)]
        weights = rng.normal(size=(2, 3, 6, 5))

        def on_a_tape(sine_jets):
            """The two jets' sines, and the gradient of a weighted sum of
            their channels over the jets' leaves, on a tape of its own."""
            tape = Tape()
            val, *leaves = wrt = [tape.constant(v) for v in values]
            jets = sine_jets([Jet2(val, leaves[0], leaves[1]),
                              Jet2(val, leaves[2], leaves[3])])
            total = 0.0
            for w, j in zip(weights, jets):
                for wk, part in zip(w, (j.val, j.d1, j.d2)):
                    total = dc.add(total, dc.vsum(dc.mul(wk, part)))
            return jets, tape.gradient(total, wrt)

        fused, g_fused = on_a_tape(net._sine_jets)
        generic, g_generic = on_a_tape(lambda pre: [dc.jet_sin(j) for j in pre])
        for a, b in zip(fused, generic):
            for pa, pb in ((a.val, b.val), (a.d1, b.d1), (a.d2, b.d2)):
                assert max_rel(pa.value, pb.value) <= 1e-12
        for a, b in zip(g_fused, g_generic):
            assert max_rel(a, b) <= 1e-12
