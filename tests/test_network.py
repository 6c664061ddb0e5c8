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


# (encoding, input_dim, orders, latent_dim, trainable weights) of the network
# node's uses: pre-training and MAD-LM, MAD-L (frozen weights, latent only),
# PINN training (no latent), the value-only boundary pass, and second
# derivatives whose first-layer input is a structural zero (Laplace's
# identity encoding, the ODE's unit_pi)
NODE_CASES = {
    "pretrain": ("periodic_x", 2, {0: 2, 1: 1}, 4, True),
    "mad_l": ("periodic_x", 2, {0: 2, 1: 1}, 4, False),
    "pinn": ("unit_pi", 1, {0: 1}, 0, True),
    "boundary": ("periodic_x", 2, {}, 4, True),
    "zero_d2_laplace": ("identity", 2, {0: 2, 1: 2}, 4, True),
    "zero_d2_unit_pi": ("unit_pi", 1, {0: 2}, 4, False),
}
# at width 64 a block holds 512 rows: 1100 rows are two blocks and a ragged
# one of 76, and the last of 1025 rows would be one row, so it joins the
# block before it
ROWS = (1, 1025, 1100)


def node_setup(case, rows, seed=0):
    encoding, input_dim, orders, latent, trainable = NODE_CASES[case]
    cfg = NetworkConfig(input_dim=input_dim, latent_dim=latent, hidden_layers=3,
                        width=64, first_layer_omega=3.0, input_encoding=encoding)
    rng = np.random.default_rng([seed, rows])
    x = rng.uniform(-1.0, 1.0, (rows, input_dim))
    z_rows = rng.normal(0.0, 0.3, (rows, latent)) if latent else None
    return cfg, net.init_siren(cfg, seed), x, z_rows, orders, trainable


def node_parts(cfg, params, x, z_rows, orders, trainable):
    """The node's output channels (value, then d1 and d2 per direction),
    its tape, and the Vars it differentiates: the weight leaves when
    ``trainable``, then the latent rows."""
    tape = Tape()
    weights = net.stage_network(tape, params, trainable)
    z = tape.constant(z_rows, "z") if cfg.latent_dim else None
    jets = net.jet_forward(cfg, weights, x, z, orders)
    parts = [next(iter(jets.values())).val]
    for j in jets.values():
        parts += [p for p in (j.d1, j.d2) if p is not None and not dc._is_zero(p)]
    wrt = [v for pair in weights for v in pair] if trainable else []
    return parts, tape, wrt + ([z] if z is not None else [])


def reference_parts(params, x, z_rows, orders):
    """The same channels in plain numpy, every layer over the whole batch at
    once, with the arithmetic of the ``dc.jet_sin`` chain."""
    cfg = params.config
    h = net.encode(cfg, x) if z_rows is None else np.concatenate(
        [net.encode(cfg, x), z_rows], axis=1)
    chans = []
    for d, order in orders.items():
        e1, e2 = net.encode_jets(cfg, x, d)
        chans.append((e1, e2 if order == 2 else None))
    layers = params.layers()
    for li, (W, b) in enumerate(layers):
        a = h @ W + b
        lin = [(d1 @ W, d2 if d2 is None or dc._is_zero(d2) else d2 @ W)
               for d1, d2 in chans]
        if li == len(layers) - 1:
            h, chans = a, lin
            break
        s, c = dc.sincos_array(a)
        h = s
        chans = [(c * p1, None if p2 is None else
                  -(s * (p1 * p1)) if dc._is_zero(p2) else c * p2 - s * (p1 * p1))
                 for p1, p2 in lin]
    return [h] + [p for pair in chans for p in pair if p is not None]


class TestNetworkNode:
    """``jet_forward`` is one tape node swept in row blocks."""

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("case", sorted(NODE_CASES))
    def test_channels_equal_the_unblocked_reference(self, case, rows):
        cfg, params, x, z_rows, orders, trainable = node_setup(case, rows)
        parts, tape, _ = node_parts(cfg, params, x, z_rows, orders, trainable)
        ops = [node.op for node in tape.nodes]
        assert ops.count("network") == 1
        assert not {"sin", "cos", "matmul", "mul"} & set(ops)
        ref = reference_parts(params, x, z_rows, orders)
        assert len(parts) == len(ref)
        for got, want in zip(parts, ref):
            np.testing.assert_array_equal(got.value, want)
        np.testing.assert_array_equal(parts[0].value, net.forward(params, x, z_rows))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("case", sorted(NODE_CASES))
    def test_gradients_match_central_differences(self, case, rows):
        """Along three random directions of every differentiated block."""
        cfg, params, x, z_rows, orders, trainable = node_setup(case, rows, seed=1)
        parts, tape, wrt = node_parts(cfg, params, x, z_rows, orders, trainable)
        rng = np.random.default_rng(rows)
        R = [rng.normal(size=p.value.shape) for p in parts]
        total = 0.0
        for r, p in zip(R, parts):
            total = dc.add(total, dc.vsum(dc.mul(r, p)))
        grads = tape.gradient(total, wrt)
        g = np.concatenate([gr.ravel() for gr in grads])

        P = params.flat.size if trainable else 0
        w0 = np.concatenate([params.flat[:P], (z_rows.ravel() if cfg.latent_dim
                                               else np.zeros(0))])

        def loss(w):
            flat = np.concatenate([w[:P], params.flat[P:]]) if trainable else params.flat
            z = w[P:].reshape(z_rows.shape) if cfg.latent_dim else None
            ref = reference_parts(net.ModelParams(flat, cfg), x, z, orders)
            return sum(float(np.sum(r * p)) for r, p in zip(R, ref))

        h = 1e-6
        for _ in range(3):
            v = rng.normal(size=w0.size)
            fd = (loss(w0 + h * v) - loss(w0 - h * v)) / (2 * h)
            np.testing.assert_allclose(g @ v, fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("case", sorted(NODE_CASES))
    def test_parents_are_the_vars_alone(self, case):
        """Frozen weights are no parents of the node, so MAD-L's sweep forms
        no weight gradient; a plain latent is none either."""
        cfg, params, x, z_rows, orders, trainable = node_setup(case, 5)
        _, tape, wrt = node_parts(cfg, params, x, z_rows, orders, trainable)
        (node,) = [n for n in tape.nodes if n.op == "network"]
        assert node.parents == tuple(v.idx for v in wrt)


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
        assert ops.count("network") == 1
        assert "cos" not in ops and "neg" not in ops
        np.testing.assert_array_equal(out.val.value, net.forward(params, x, z))

    def test_matches_generic_jet_sin_with_two_second_order_directions(self):
        """The node against the same network built from ``dc.jet_sin`` and
        tape ops: the jets, and the gradients of a weighted sum of them over
        the weights and the latent, over three blocks."""
        cfg = NetworkConfig(input_dim=2, latent_dim=3, hidden_layers=3, width=64,
                            first_layer_omega=3.0, input_encoding="periodic_x")
        params = net.init_siren(cfg, 8)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, (1100, 2))
        z = rng.normal(0.0, 0.3, (1100, 3))
        orders = {0: 2, 1: 2}  # direction 1's second derivative enters as a zero
        R = rng.normal(size=(5, 1100, 1))

        def generic(cfg, weights, x, z_rows, orders):
            val = dc.concat_cols([net.encode(cfg, x), z_rows])
            jets = []
            for d in orders:
                e1, e2 = net.encode_jets(cfg, x, d)
                jets.append(Jet2(val, e1, e2))
            for li, (W, b) in enumerate(weights):
                lin = dc.add(dc.matmul(jets[0].val, W), b)
                jets = [Jet2(lin, dc.matmul(j.d1, W),
                             j.d2 if dc._is_zero(j.d2) else dc.matmul(j.d2, W))
                        for j in jets]
                if li < len(weights) - 1:
                    jets = [dc.jet_sin(j) for j in jets]
            return dict(zip(orders, jets))

        def on_a_tape(forward):
            tape = Tape()
            weights = net.stage_network(tape, params)
            z_rows = tape.constant(z)
            jets = forward(cfg, weights, x, z_rows, orders)
            parts = [jets[0].val] + [p for j in jets.values() for p in (j.d1, j.d2)]
            total = 0.0
            for r, p in zip(R, parts):
                total = dc.add(total, dc.vsum(dc.mul(r, p)))
            wrt = [v for pair in weights for v in pair] + [z_rows]
            return [p.value for p in parts], tape.gradient(total, wrt)

        node, g_node = on_a_tape(net.jet_forward)
        chain, g_chain = on_a_tape(generic)
        for a, b in zip(node, chain):
            assert max_rel(a, b) <= 1e-12
        for a, b in zip(g_node, g_chain):
            assert max_rel(a, b) <= 1e-12
