import base64
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from seizureformer import kv, train
from seizureformer import tensor as T
from seizureformer.model import (
    LOSS_EPS,
    ModelConfig,
    SeizureFormer,
    embed_patches,
    init_params,
    load_checkpoint,
    mhsa_encoder,
    model_from_checkpoint,
    patchify,
    predict_head,
    save_checkpoint,
    se_recalibrate,
    weighted_bce,
)
from seizureformer.tensor import Tensor, grad_check

from oracles import (
    composed_embed,
    composite_weighted_bce,
    gather_patches,
    graph_mhsa_encoder,
    naive_conv1d,
    naive_conv2d,
    per_head_mhsa_encoder,
    tsum,
)

TINY = dict(
    lookback=16, patch_length=4, stride=2, kernel_sizes=(3, 5), embed_features=3,
    embed_dim=8, heads=2, encoder_layers=1, ffn_dim=16,
)
PIPELINE = {"label_window": 60, "label_fraction": 0.7, "min_history": 7, "horizon": 1}


class TestConfig:
    def test_patch_count_formula(self):
        cfg = ModelConfig(lookback=30, patch_length=4, stride=2)
        assert cfg.patch_count == (30 - 4) // 2 + 1

    def test_head_dim(self):
        cfg = ModelConfig(embed_dim=128, heads=2)
        assert cfg.head_dim == 64

    def test_patch_longer_than_lookback(self):
        with pytest.raises(ValueError, match="exceeds lookback"):
            ModelConfig(lookback=5, patch_length=8).validate()

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="heads"):
            ModelConfig(embed_dim=10, heads=4).validate()

    def test_even_cvt_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            ModelConfig(cvt_kernel=(2, 3)).validate()

    def test_se_reduction_default(self):
        assert ModelConfig(channels=2).se_reduction == 2
        assert ModelConfig(channels=5).se_reduction == 5

    def test_reference_preset(self):
        cfg = ModelConfig.reference_preset()
        assert cfg.embed_dim == 128 and cfg.encoder_layers == 3
        assert cfg.heads == 2 and cfg.ffn_dim == 1024

    def test_variant_names(self):
        assert ModelConfig().variant == "Full Model"
        assert ModelConfig(use_se=False).variant == "w/o SE Block"
        assert ModelConfig(use_cnn_embed=False, use_cvt=False, use_se=False).variant == "w/o All Modules"


class TestPatchify:
    def test_strided_starts(self):
        x = Tensor(np.arange(10.0))
        patches = patchify(x, 4, 2).data
        assert patches.shape == (4, 4)
        assert_allclose(patches[0], [0, 1, 2, 3])
        assert_allclose(patches[3], [6, 7, 8, 9])

    def test_single_patch_when_equal(self):
        x = Tensor(np.arange(5.0))
        patches = patchify(x, 5, 3).data
        assert patches.shape == (1, 5)
        assert_allclose(patches[0], x.data)

    def test_patch_longer_than_series(self):
        with pytest.raises(ValueError, match="exceeds"):
            patchify(Tensor(np.arange(5.0)), 8, 1)

    def test_count_formula_grid(self):
        for n in (8, 13, 30, 41):
            for p in (2, 4, 7):
                for s in (1, 2, 3, 5):
                    if p > n:
                        continue
                    got = patchify(Tensor(np.zeros(n)), p, s).shape
                    assert got == ((n - p) // s + 1, p)

    @given(lead=st.lists(st.integers(1, 3), max_size=3), length=st.integers(1, 12), patch_length=st.integers(1, 12),
           stride=st.integers(1, 5), layout=st.sampled_from(["contiguous", "transposed", "stepped"]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_matches_gather_oracle_bytes(self, lead, length, patch_length, stride, layout, seed):
        """The forward-only patches are the oracle gather's shape and bytes over 1-D to
        4-D inputs, contiguous or not."""
        assume(patch_length <= length)
        rng = np.random.default_rng(seed)
        if layout == "transposed":  # the last axis has the largest stride
            x = rng.standard_normal((length, *lead[::-1])).T
        elif layout == "stepped":  # every other element of a longer series
            x = rng.standard_normal((*lead, 2 * length))[..., ::2]
        else:
            x = rng.standard_normal((*lead, length))
        got = patchify(Tensor(x), patch_length, stride).data
        want = gather_patches(Tensor(x), patch_length, stride).data
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_refuses_grad_requiring_input(self):
        """Forward-only, like ``conv1d``: a recorded graph through it raises, and under
        ``no_grad`` it slices as usual."""
        x = Tensor(np.arange(10.0), requires_grad=True)
        with pytest.raises(ValueError, match="forward-only"):
            patchify(x, 4, 2)
        with T.no_grad():
            assert patchify(x, 4, 2).data.tobytes() == patchify(Tensor(x.data), 4, 2).data.tobytes()


def _embed_params(cfg, seed, **fixed):
    """``init_params`` with every embed/projection parameter drawn at random
    (the biases and the positional table start at zero), then ``fixed`` values."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for name, t in params.items():
        if name.startswith(("embed.", "proj.")):
            t.data = rng.standard_normal(t.shape)
    for name, value in fixed.items():
        params[name].data = np.asarray(value, dtype=np.float64)
    return params


class TestEmbedPatches:
    def test_identity_kernel_mean_pool(self):
        """A single 1-tap unit kernel with zero bias, a unit projection and a zero
        positional table reduces to the patch mean."""
        cfg = ModelConfig(lookback=4, patch_length=4, stride=1, kernel_sizes=(1,), embed_features=1, embed_dim=1, heads=1)
        params = _embed_params(cfg, 0, **{"embed.conv0.weight": [[1.0]], "embed.conv0.bias": [0.0],
                                          "proj.weight": [[1.0]], "proj.pos": [[0.0]]})
        patches = Tensor(np.array([[[1.0, 2.0, 3.0, 6.0]], [[4.0, 4.0, 4.0, 4.0]]]))
        out = embed_patches(patches, cfg, params)
        assert_allclose(out.data, [[[3.0]], [[4.0]]])

    def test_feature_width(self):
        """The kernel banks give d' = kernels x features, which the projection takes to D."""
        cfg = ModelConfig(**TINY)
        params = init_params(cfg, np.random.default_rng(0))
        assert cfg.embed_width == 2 * 3
        assert params["proj.weight"].shape == (cfg.embed_width, cfg.embed_dim)
        patches = Tensor(np.random.default_rng(1).standard_normal((5, cfg.patch_count, cfg.patch_length)))
        assert embed_patches(patches, cfg, params).shape == (5, cfg.patch_count, cfg.embed_dim)

    def test_matches_composed_oracle(self):
        """conv1d + mean pool + concat via the naive implementations, then the projection."""
        cfg = ModelConfig(**{**TINY, "lookback": 10, "patch_length": 8})
        params = _embed_params(cfg, 1)
        rng = np.random.default_rng(2)
        patches = rng.standard_normal((cfg.patch_count, cfg.patch_length))
        got = embed_patches(Tensor(patches), cfg, params).data
        embedded = np.zeros((cfg.patch_count, cfg.embed_width))
        for i in range(cfg.patch_count):
            for j in range(2):
                w, b = params[f"embed.conv{j}.weight"].data, params[f"embed.conv{j}.bias"].data
                embedded[i, 3 * j : 3 * j + 3] = naive_conv1d(patches[i], w, b, "same").mean(axis=0)
        expected = embedded @ params["proj.weight"].data + params["proj.pos"].data
        assert_allclose(got, expected, atol=1e-12)

    @given(
        kernel_sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
        patch_length=st.integers(1, 6), stride=st.integers(1, 3), extra=st.integers(0, 5),
        channels=st.integers(1, 3), features=st.integers(1, 3), use_cnn_embed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_kernel_oracle(self, kernel_sizes, patch_length, stride, extra, channels, features,
                                       use_cnn_embed, seed):
        """The folded (P, D) map against the per-kernel conv1d -> mean -> concat ->
        proj + pos chain it replaced, both branches: values and every gradient from the
        patches on (``patchify`` is forward-only)."""
        cfg = ModelConfig(lookback=patch_length + extra, patch_length=patch_length, stride=stride,
                          channels=channels, kernel_sizes=kernel_sizes, embed_features=features,
                          embed_dim=3, heads=1, use_cnn_embed=use_cnn_embed)
        params = _embed_params(cfg, seed)
        oracle_params = {k: Tensor(t.data, requires_grad=True) for k, t in params.items()}
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((2, channels, cfg.lookback))
        g = Tensor(rng.standard_normal((2, channels, cfg.patch_count, cfg.embed_dim)))
        patches = patchify(Tensor(x), patch_length, stride).data
        xt, xo = Tensor(patches, requires_grad=True), Tensor(patches, requires_grad=True)
        out = embed_patches(xt, cfg, params)
        ref = composed_embed(xo, cfg, oracle_params)
        assert_allclose(out.data, ref.data, rtol=1e-12, atol=1e-12)

        tsum(T.mul(out, g)).backward()
        tsum(T.mul(ref, g)).backward()
        assert_allclose(xt.grad, xo.grad, rtol=1e-12, atol=1e-12)
        front = [name for name in params if name.startswith(("embed.", "proj."))]
        assert len(front) == (2 * len(kernel_sizes) if use_cnn_embed else 1) + 2
        for name in front:
            assert_allclose(params[name].grad, oracle_params[name].grad, rtol=1e-12, atol=1e-12, err_msg=name)


class TestProjectPosition:
    """The projection and positional table, folded into ``embed_patches``."""

    def test_identity_projection(self):
        cfg = ModelConfig(lookback=10, patch_length=4, stride=2, kernel_sizes=(1,), embed_features=4, embed_dim=4,
                          heads=1, use_cnn_embed=False)
        params = _embed_params(cfg, 2, **{"embed.linear.weight": np.eye(4), "proj.weight": np.eye(4),
                                          "proj.pos": np.zeros((cfg.patch_count, 4))})
        patches = Tensor(np.random.default_rng(2).standard_normal((3, cfg.patch_count, 4)))
        assert_allclose(embed_patches(patches, cfg, params).data, patches.data)

    def test_zero_input_gives_positional_table(self):
        cfg = ModelConfig(**TINY)
        params = init_params(cfg, np.random.default_rng(3))  # zero biases
        params["proj.pos"].data = np.random.default_rng(3).standard_normal(params["proj.pos"].shape)
        out = embed_patches(Tensor(np.zeros((cfg.patch_count, cfg.patch_length))), cfg, params)
        assert_allclose(out.data, params["proj.pos"].data)

    def test_position_sensitivity(self):
        """With a non-constant positional table, permuting patches changes the output."""
        cfg = ModelConfig(**TINY)
        params = _embed_params(cfg, 4)
        e = np.random.default_rng(4).standard_normal((cfg.patch_count, cfg.patch_length))
        out = embed_patches(Tensor(e), cfg, params).data
        permuted = embed_patches(Tensor(e[::-1].copy()), cfg, params).data
        assert not np.allclose(out[::-1], permuted)


class TestCvtConv:
    """The CVT stage of ``forward``: one shared ``conv2d`` over the (channel, patch) grid."""

    def test_unit_kernel_identity(self):
        x = Tensor(np.random.default_rng(5).standard_normal((2, 7, 8)))
        assert_allclose(T.conv2d(x, Tensor([[1.0]])).data, x.data)

    def test_single_channel_sees_zero_padding(self):
        # with one channel, cross-channel taps touch only padding
        x = np.random.default_rng(6).standard_normal((1, 6, 4))
        k = np.zeros((3, 3))
        k[0, 1] = 1.0  # tap pointing at the (missing) previous channel
        out = T.conv2d(Tensor(x), Tensor(k)).data
        assert_allclose(out, 0.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 7, 8))
        k = rng.standard_normal((3, 3))
        assert_allclose(T.conv2d(Tensor(x), Tensor(k)).data, naive_conv2d(x, k), atol=1e-12)


class TestMhsaEncoder:
    def test_single_patch_attention_is_one(self):
        cfg = ModelConfig(**{**TINY, "lookback": 4, "patch_length": 4, "stride": 1})
        assert cfg.patch_count == 1
        params = init_params(cfg, np.random.default_rng(8))
        x = Tensor(np.random.default_rng(9).standard_normal((3, 1, cfg.embed_dim)))
        sink = []
        mhsa_encoder(x, cfg, params, attn_sink=sink)
        for attn in sink:
            assert_allclose(attn.data, np.ones_like(attn.data))

    def test_attention_rows_sum_to_one(self):
        cfg = ModelConfig(**{**TINY, "encoder_layers": 2})
        params = init_params(cfg, np.random.default_rng(10))
        x = Tensor(np.random.default_rng(11).standard_normal((4, cfg.patch_count, cfg.embed_dim)))
        sink = []
        mhsa_encoder(x, cfg, params, attn_sink=sink)
        assert len(sink) == cfg.encoder_layers * cfg.heads
        for attn in sink:
            assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_shape_preserved(self):
        cfg = ModelConfig(**TINY)
        params = init_params(cfg, np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).standard_normal((6, cfg.patch_count, cfg.embed_dim)))
        assert mhsa_encoder(x, cfg, params).shape == x.shape

    @given(
        heads=st.integers(1, 3), dk=st.integers(1, 4), layers=st.integers(1, 2), n=st.integers(1, 3),
        p=st.integers(1, 5), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_broadcast_matmul_oracle(self, heads, dk, layers, n, p, seed):
        """Folded weight GEMMs, fused biases and the fused layer norm against the
        encoder built from the replaced ops: values, input and every parameter grad."""
        cfg = ModelConfig(**{**TINY, "embed_dim": heads * dk, "heads": heads, "encoder_layers": layers, "ffn_dim": 5})
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        for t in params.values():  # non-trivial biases and layer-norm affines too
            t.data = 0.5 * rng.standard_normal(t.shape)
        oracle_params = {k: Tensor(t.data, requires_grad=True) for k, t in params.items()}
        x = rng.standard_normal((n, p, cfg.embed_dim))
        g = Tensor(rng.standard_normal(x.shape))

        xt, xo = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out = mhsa_encoder(xt, cfg, params)
        ref = per_head_mhsa_encoder(xo, cfg, oracle_params)
        assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)

        tsum(T.mul(out, g)).backward()
        tsum(T.mul(ref, g)).backward()
        assert_allclose(xt.grad, xo.grad, rtol=0, atol=1e-12)
        encoder = [name for name in params if name.startswith("encoder")]
        assert len(encoder) == (9 + 3 * heads) * layers
        for name in encoder:
            assert_allclose(params[name].grad, oracle_params[name].grad, rtol=0, atol=1e-12, err_msg=name)

    @given(
        heads=st.integers(1, 3), dk=st.integers(1, 4), layers=st.integers(1, 2), n=st.integers(1, 3),
        p=st.integers(1, 5), training=st.booleans(), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_layers_match_graph_oracle(self, heads, dk, layers, n, p, training, seed):
        """One ``encoder_layer`` node per layer against the graph it replaced, in eval
        mode and with dropout on: output, attention maps, the rng draws, and the
        input and every parameter grad."""
        cfg = ModelConfig(**{**TINY, "embed_dim": heads * dk, "heads": heads, "encoder_layers": layers,
                             "ffn_dim": 5, "dropout_rate": 0.3})
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        for t in params.values():  # non-trivial biases and layer-norm affines too
            t.data = 0.5 * rng.standard_normal(t.shape)
        oracle_params = {k: Tensor(t.data, requires_grad=True) for k, t in params.items()}
        x = rng.standard_normal((n, p, cfg.embed_dim))
        g = Tensor(rng.standard_normal(x.shape))

        xt, xo = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        rng_t, rng_o = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        sink_t, sink_o = [], []
        out = mhsa_encoder(xt, cfg, params, training, rng_t, sink_t)
        ref = graph_mhsa_encoder(xo, cfg, oracle_params, training, rng_o, sink_o)
        assert_allclose(out.data, ref.data, rtol=1e-12, atol=1e-12)
        assert len(sink_t) == len(sink_o) == heads * layers
        for fused, graph in zip(sink_t, sink_o):
            assert_allclose(fused.data, graph.data, rtol=1e-12, atol=1e-12)
        assert rng_t.random() == rng_o.random()

        tsum(T.mul(out, g)).backward()
        tsum(T.mul(ref, g)).backward()
        assert_allclose(xt.grad, xo.grad, rtol=1e-12, atol=1e-12)
        for name in params:
            if name.startswith("encoder"):
                assert_allclose(params[name].grad, oracle_params[name].grad, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_default_width_forward_bytes_match_graph_oracle(self):
        """At the default and reference widths, eval and seeded training-mode forwards
        are the same bytes as the graph-level encoder (tiny widths such as dk=1 take
        other BLAS paths, so the sweep above uses a tolerance), and so is a default-width
        eval batch of 512 windows, the batch ``train.evaluate`` runs."""
        cases = [(cfg, 16, training) for cfg in (ModelConfig(), ModelConfig.reference_preset())
                 for training in (False, True)]
        for cfg, batch, training in cases + [(ModelConfig(), 512, False)]:
            params = init_params(cfg, np.random.default_rng(15))
            shape = (batch * cfg.channels, cfg.patch_count, cfg.embed_dim)
            x = Tensor(np.random.default_rng(16).standard_normal(shape))
            sink_t, sink_o = [], []
            out = mhsa_encoder(x, cfg, params, training, np.random.default_rng(17), sink_t)
            ref = graph_mhsa_encoder(x, cfg, params, training, np.random.default_rng(17), sink_o)
            assert out.data.tobytes() == ref.data.tobytes()
            assert [a.data.tobytes() for a in sink_t] == [a.data.tobytes() for a in sink_o]


class TestSeRecalibrate:
    def test_zero_weights_halve_exactly(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 2, 5, 4)))
        out, gates = se_recalibrate(x, Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        assert np.array_equal(gates.data, np.full((3, 2), 0.5))
        assert np.array_equal(out.data, x.data * 0.5)

    def test_zero_input(self):
        x = Tensor(np.zeros((2, 2, 3, 4)))
        rng = np.random.default_rng(15)
        out, gates = se_recalibrate(x, Tensor(rng.standard_normal((2, 2))), Tensor(rng.standard_normal((2, 2))))
        assert_allclose(out.data, 0.0)
        assert np.all((gates.data > 0) & (gates.data < 1))

    def test_pooling_matches_double_sum(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 5, 4))
        pooled = T.mean(Tensor(x), axes=(-2, -1)).data
        expected = np.zeros((2, 3))
        for b in range(2):
            for c in range(3):
                expected[b, c] = x[b, c].sum() / (5 * 4)
        assert_allclose(pooled, expected, atol=1e-12)

    def test_gates_strictly_open(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((4, 2, 6, 8)))
        _, gates = se_recalibrate(x, Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((3, 2))))
        assert np.all(gates.data > 0.0) and np.all(gates.data < 1.0)


class TestPredictHead:
    def test_zero_weights_give_half(self):
        x = Tensor(np.random.default_rng(18).standard_normal((4, 2, 3, 5)))
        out = predict_head(x, Tensor(np.zeros((30, 1))), Tensor(np.zeros(1)), 0.0)
        assert_allclose(out.data, 0.5)

    def test_monotone_in_bias(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((4, 2, 3, 5)))
        w = Tensor(rng.standard_normal((30, 1)))
        low = predict_head(x, w, Tensor(np.zeros(1)), 0.0).data
        high = predict_head(x, w, Tensor(np.full(1, 5.0)), 0.0).data
        assert np.all(high > low)

    def test_flatten_width(self):
        # d * p * D entries feed the head: 2 channels x 7 patches x 16 features
        cfg = ModelConfig(lookback=16, patch_length=4, stride=2, channels=2, embed_dim=16)
        assert cfg.patch_count == 7
        assert cfg.flat_dim == 224


def small_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return SeizureFormer(cfg, np.random.default_rng(seed))


class TestForward:
    def test_output_shape_and_range(self):
        model = small_model()
        x = np.random.default_rng(20).standard_normal((5, 2, 16))
        out = model.forward(x).data
        assert out.shape == (5, 1)
        assert np.all((out > 0) & (out < 1))

    def test_eval_mode_bit_deterministic(self):
        model = small_model()
        x = np.random.default_rng(21).standard_normal((3, 2, 16))
        assert model.forward(x).data.tobytes() == model.forward(x).data.tobytes()

    def test_shape_pipeline(self):
        cfg = ModelConfig(**TINY)
        rng = np.random.default_rng(22)
        params = init_params(cfg, rng)
        x = Tensor(rng.standard_normal((3, 2, 16)))
        patches = patchify(x, cfg.patch_length, cfg.stride)
        assert patches.shape == (3, 2, cfg.patch_count, cfg.patch_length)
        projected = embed_patches(patches, cfg, params)
        assert projected.shape == (3, 2, cfg.patch_count, cfg.embed_dim)
        assert T.conv2d(projected, params["cvt.kernel"]).shape == projected.shape

    def test_disabling_se_reproduces_unscaled_output(self):
        """The SE flag must remove exactly the recalibration stage."""
        import dataclasses

        from seizureformer.model import forward

        model = small_model(seed=3)
        x = np.random.default_rng(23).standard_normal((4, 2, 16))
        pre_se = _forward_until_se(model, x)
        expected = T.sigmoid(T.add(
            T.matmul(T.reshape(pre_se, (4, model.config.flat_dim)), model.params["head.weight"]),
            model.params["head.bias"],
        )).data
        flag_off = forward(x, dataclasses.replace(model.config, use_se=False), model.params).data
        assert np.array_equal(flag_off, expected)
        assert not np.array_equal(flag_off, model.forward(x).data)

    def test_ablated_variant_runs_and_grad_checks(self):
        model = small_model(seed=4, use_cnn_embed=False, use_cvt=False, use_se=False)
        x = np.random.default_rng(24).standard_normal((2, 2, 16))
        y = np.array([1.0, 0.0])
        out = model.forward(x)
        assert out.shape == (2, 1)

        name = "embed.linear.weight"

        def loss_of(t):
            original = model.params[name]
            model.params[name] = t
            try:
                return weighted_bce(model.forward(x), y, 1.5)
            finally:
                model.params[name] = original

        assert grad_check(loss_of, model.params[name]) < 1e-4

    def test_bad_input_shape(self):
        with pytest.raises(ValueError, match="expected batch"):
            small_model().forward(np.zeros((2, 3, 16)))

    def test_empty_batch_rejected_naming_the_shape(self):
        with T.no_grad(), pytest.raises(ValueError, match=r"B >= 1, got \(0, 2, 16\)"):
            small_model().forward(np.zeros((0, 2, 16)))

    def test_wpos_shared_across_channels(self):
        """Both channels receive the same positional table."""
        model = small_model(seed=5)
        x = np.random.default_rng(25).standard_normal((1, 2, 16))
        swapped = x[:, ::-1, :].copy()
        cfg = model.config
        p1 = patchify(Tensor(x), cfg.patch_length, cfg.stride)
        p2 = patchify(Tensor(swapped), cfg.patch_length, cfg.stride)
        e1 = embed_patches(p1, cfg, model.params).data
        e2 = embed_patches(p2, cfg, model.params).data
        assert_allclose(e1[:, 0], e2[:, 1], atol=1e-14)


def _forward_until_se(model, x):
    """Everything before the head with SE skipped, using the model's own params."""
    cfg = model.config
    params = model.params
    patches = patchify(Tensor(x), cfg.patch_length, cfg.stride)
    grid = T.conv2d(embed_patches(patches, cfg, params), params["cvt.kernel"])
    stacked = T.reshape(grid, (x.shape[0] * cfg.channels, cfg.patch_count, cfg.embed_dim))
    encoded = mhsa_encoder(stacked, cfg, params)
    return T.reshape(encoded, (x.shape[0], cfg.channels, cfg.patch_count, cfg.embed_dim))


class TestWeightedBce:
    def test_ln2_at_half(self):
        out = weighted_bce(Tensor([[0.5]]), np.array([1]), 1.0)
        assert_allclose(out.item(), math.log(2.0), atol=1e-12)

    def test_pos_weight_scales_positive_term(self):
        out = weighted_bce(Tensor([[0.5]]), np.array([1]), 4.0)
        assert_allclose(out.item(), 4.0 * math.log(2.0), atol=1e-12)

    def test_confident_negative_loss_vanishes(self):
        out = weighted_bce(Tensor([[1e-9]]), np.array([0]), 1.0)
        assert out.item() < 1e-6

    def test_invalid_labels(self):
        with pytest.raises(ValueError, match="labels"):
            weighted_bce(Tensor([[0.5]]), np.array([2]), 1.0)

    def test_invalid_pos_weight(self):
        with pytest.raises(ValueError, match="pos_weight"):
            weighted_bce(Tensor([[0.5]]), np.array([1]), 0.0)

    @pytest.mark.parametrize("pos_weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_pos_weight_named(self, pos_weight):
        with pytest.raises(ValueError, match="pos_weight must be finite"):
            weighted_bce(Tensor([[0.5]]), np.array([1]), pos_weight)

    def test_empty_batch_names_the_shape(self):
        with pytest.raises(ValueError, match=r"at least one prediction, got y_hat of shape \(0, 1\)"):
            weighted_bce(Tensor(np.zeros((0, 1))), np.array([]), 1.0)

    def test_size_mismatch_names_both_sizes(self):
        with pytest.raises(ValueError, match="y_hat has 3 predictions but y has 2 labels"):
            weighted_bce(Tensor(np.full((3, 1), 0.5)), np.array([0, 1]), 1.0)

    @given(n=st.integers(1, 300), pos_weight=st.one_of(st.just(1.0), st.floats(0.01, 100.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, pos_weight=2.5, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_composite_graph(self, n, pos_weight, seed):
        """The one-node loss against the 11-node graph it replaced: the same loss bytes and
        the same y_hat grad bytes, with probabilities at 0, 1 and the clamp bounds, and
        within 1e-9 of each, on both sides."""
        rng = np.random.default_rng(seed)
        edges = np.array([0.0, 1.0, LOSS_EPS, 1.0 - LOSS_EPS])
        specials = np.concatenate([edges, edges - 1e-9, edges + 1e-9])
        probs = rng.random(n)
        at = rng.random(n) < 0.4
        probs[at] = rng.choice(specials, at.sum())
        labels = rng.integers(0, 2, n)
        node, graph = Tensor(probs.reshape(n, 1), requires_grad=True), Tensor(probs.reshape(n, 1), requires_grad=True)
        loss, ref = weighted_bce(node, labels, pos_weight), composite_weighted_bce(graph, labels, pos_weight)
        assert loss.data.tobytes() == ref.data.tobytes()
        loss.backward()
        ref.backward()
        assert node.grad.tobytes() == graph.grad.tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = small_model(seed=6)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_checkpoint(a, model.config, model.params, PIPELINE)
        lines = a.read_text().splitlines()
        for name, t in model.params.items():
            at = lines.index(f"param={name} shape={kv.format_value(t.shape)}")
            assert lines[at + 1] == base64.b64encode(t.data.astype("<f8").tobytes()).decode("ascii")
        cfg, params, pipeline = load_checkpoint(a)
        assert cfg == model.config
        assert pipeline == PIPELINE and type(pipeline["label_fraction"]) is float
        for name, t in model.params.items():
            assert t.data.tobytes() == params[name].data.tobytes()
        save_checkpoint(b, cfg, params, pipeline)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        embed_dim=st.sampled_from([2, 4, 6]),
        heads=st.sampled_from([1, 2]),
        encoder_layers=st.integers(1, 2),
        ffn_dim=st.integers(1, 6),
        embed_features=st.integers(1, 3),
        pool=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, np.finfo(np.float64).max, -np.finfo(np.float64).max]),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_roundtrip_special_values_bit_exact(self, tmp_path_factory, embed_dim, heads, encoder_layers, ffn_dim,
                                                embed_features, pool, seed):
        model = small_model(seed=0, embed_dim=embed_dim, heads=heads, encoder_layers=encoder_layers,
                            ffn_dim=ffn_dim, embed_features=embed_features)
        rng = np.random.default_rng(seed)
        for t in model.params.values():
            t.data = rng.choice(np.array(pool), size=t.shape)
        path = tmp_path_factory.mktemp("ckpt") / "m.txt"
        save_checkpoint(path, model.config, model.params, PIPELINE)
        cfg, params, _ = load_checkpoint(path)
        assert cfg == model.config and list(params) == list(model.params)
        for name, t in model.params.items():
            assert params[name].data.tobytes() == t.data.tobytes()

    def test_two_saves_write_identical_bytes(self, tmp_path):
        model = small_model(seed=6)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_checkpoint(a, model.config, model.params, PIPELINE)
        save_checkpoint(b, model.config, model.params, PIPELINE)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_parameters_are_writable_float64(self, tmp_path):
        model = small_model(seed=6)
        save_checkpoint(tmp_path / "m.txt", model.config, model.params, PIPELINE)
        loaded, _ = model_from_checkpoint(tmp_path / "m.txt")
        before = {name: t.data.copy() for name, t in loaded.params.items()}
        for t in loaded.params.values():
            assert t.data.dtype == np.float64 and t.data.dtype.isnative and t.data.flags.writeable
            t.data += 0.0  # an in-place update must not raise
            t.grad = np.ones_like(t.data)
        train.optimizer_step(loaded.params, train.OptimizerState(), lr=1e-2)
        assert all(not np.array_equal(before[name], t.data) for name, t in loaded.params.items())

    def test_loaded_model_same_predictions(self, tmp_path):
        model = small_model(seed=7)
        x = np.random.default_rng(26).standard_normal((3, 2, 16))
        save_checkpoint(tmp_path / "m.txt", model.config, model.params, PIPELINE)
        loaded, pipeline = model_from_checkpoint(tmp_path / "m.txt")
        assert pipeline == PIPELINE
        assert model.forward(x).data.tobytes() == loaded.forward(x).data.tobytes()

    def test_reject_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(bad)

    def test_v1_rejected_with_retrain_message(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        for version in ("v1", "v2"):
            path.write_text("\n".join([f"format=risk-model-checkpoint-{version}"] + lines[1:]) + "\n")
            with pytest.raises(ValueError, match=f"is a {version} checkpoint.*retrain the model to write v3"):
                load_checkpoint(path)

    @staticmethod
    def _saved_lines(tmp_path):
        model = small_model(seed=8)
        path = tmp_path / "m.txt"
        save_checkpoint(path, model.config, model.params, PIPELINE)
        return path, path.read_text().splitlines()

    def test_header_records_the_pipeline(self, tmp_path):
        _, lines = self._saved_lines(tmp_path)
        assert lines[:5] == [
            "format=risk-model-checkpoint-v3", "pipeline.label_window=60", "pipeline.label_fraction=0.7",
            "pipeline.min_history=7", "pipeline.horizon=1",
        ]
        assert "config.lookback=16" in lines

    def test_unknown_pipeline_key_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(l.replace("pipeline.horizon=", "pipeline.horizons=") for l in lines) + "\n")
        with pytest.raises(ValueError, match="unknown pipeline key 'horizons'"):
            load_checkpoint(path)

    def test_missing_pipeline_key_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(l for l in lines if not l.startswith("pipeline.min_history=")) + "\n")
        with pytest.raises(ValueError, match="missing pipeline keys min_history"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(l.replace("config.use_se=", "config.use_sse=") for l in lines) + "\n")
        with pytest.raises(ValueError, match="unknown config key 'use_sse'"):
            load_checkpoint(path)

    def test_non_bool_flag_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(l.replace("config.use_se=true", "config.use_se=yes") for l in lines) + "\n")
        with pytest.raises(ValueError, match="use_se expects true or false"):
            load_checkpoint(path)

    def test_missing_config_key_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(l for l in lines if not l.startswith("config.dropout_rate=")) + "\n")
        with pytest.raises(ValueError, match="missing config keys dropout_rate"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key", [("pipeline", "horizon"), ("config", "use_se")])
    def test_repeated_header_key_rejected(self, tmp_path, section, key):
        path, lines = self._saved_lines(tmp_path)
        at = next(n for n, l in enumerate(lines) if l.startswith(f"{section}.{key}="))
        path.write_text("\n".join(lines[: at + 1] + [lines[at]] + lines[at + 1 :]) + "\n")
        with pytest.raises(ValueError, match=f"m.txt:{at + 2}: repeated {section} key '{key}'"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        assert lines[-2] == "param=head.bias shape=1"
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated, no values for parameter 'head.bias'"):
            load_checkpoint(path)
        at = len(lines) - 3  # the values of the parameter before head.bias, cut mid-line
        path.write_text("\n".join(lines[:at] + [lines[at][: len(lines[at]) // 2]]) + "\n")
        with pytest.raises(ValueError, match=f"m.txt:{at + 1}: .*base64|m.txt:{at + 1}: .* bytes, needs"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(next(l for l in lines if l.startswith("param=se.w1 ")))
        base64.b64decode(lines[at + 1], validate=True)  # the removed pair is the name line and its values
        path.write_text("\n".join(lines[:at] + lines[at + 2 :]) + "\n")
        with pytest.raises(ValueError, match="missing parameters se.w1"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(l.replace("param=head.bias shape=1", "param=head.bias shape=1,1") for l in lines) + "\n")
        with pytest.raises(ValueError, match="'head.bias' has shape"):
            load_checkpoint(path)
        # a transposed shape has the right byte count and must still be refused
        at = lines.index("param=head.weight shape=112,1")
        path.write_text("\n".join(lines[:at] + ["param=head.weight shape=1,112"] + lines[at + 1 :]) + "\n")
        with pytest.raises(ValueError, match=f"m.txt:{at + 1}: parameter 'head.weight' has shape"):
            load_checkpoint(path)

    @staticmethod
    def _replace_values(tmp_path, name, value_line):
        path, lines = TestCheckpoint._saved_lines(tmp_path)
        at = next(n for n, l in enumerate(lines) if l.startswith(f"param={name} ")) + 1
        path.write_text("\n".join(lines[:at] + [value_line(lines[at])] + lines[at + 1 :]) + "\n")
        return path, at + 1

    @pytest.mark.parametrize("corrupt", [lambda v: v[:-1], lambda v: "!" + v[1:], lambda v: v[:4] + " " + v[4:]])
    def test_malformed_base64_rejected(self, tmp_path, corrupt):
        path, line = self._replace_values(tmp_path, "se.w1", corrupt)
        with pytest.raises(ValueError, match=f"m.txt:{line}: values for parameter 'se.w1' are not valid base64"):
            load_checkpoint(path)

    def test_wrong_byte_count_rejected(self, tmp_path):
        def drop_one_value(v):
            return base64.b64encode(base64.b64decode(v)[:-8]).decode("ascii")

        path, line = self._replace_values(tmp_path, "se.w1", drop_one_value)
        with pytest.raises(ValueError, match=f"m.txt:{line}: parameter 'se.w1' has .* bytes, needs"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        def poison(v):
            values = np.frombuffer(base64.b64decode(v), "<f8").copy()
            values[-1] = bad
            return base64.b64encode(values.tobytes()).decode("ascii")

        path, line = self._replace_values(tmp_path, "se.w1", poison)
        with pytest.raises(ValueError, match=f"m.txt:{line}: parameter 'se.w1' has a non-finite value"):
            load_checkpoint(path)

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path, _ = self._saved_lines(tmp_path)
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(kv.os, "replace", broken_replace)
        other = small_model(seed=9)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, other.config, other.params, PIPELINE)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]
