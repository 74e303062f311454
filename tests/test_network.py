"""Builders, head attachment, per-head losses, and end-to-end gradient flow.
The loss-averaging check is `msn verify`'s `invariant/head_averaging`, and the
full-network finite-difference check its `gradcheck/full_msn_config7`, which
criterion 01 runs."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from msn import network
from msn.config import RunConfig
from msn.losses import LogitBatch, XiState, msl_total
from msn.network import (
    ATTACHMENT_CONFIGS,
    VGG_CONVS_PER_BLOCK,
    NetworkSpec,
    attach_msn_loss,
    build_network,
    forward_heads,
    predict,
)
from msn.tensor import (
    NonFiniteError,
    Tensor,
    batch_norm,
    conv2d,
    global_average_pool,
    linear,
    max_pool2,
    no_grad,
    relu,
    residual_add,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_spec(**overrides):
    base = dict(family="vgg", width_multiplier=1 / 32, attachment=(1, 2),
                num_classes=3, input_shape=(8, 8, 1), num_blocks=2)
    base.update(overrides)
    return NetworkSpec(**base)


class TestSpec:
    def test_named_configs_map_exactly(self):
        assert ATTACHMENT_CONFIGS == {
            "config1": (4,), "config2": (3, 4), "config3": (2, 4),
            "config4": (1, 4), "config5": (2, 3, 4), "config6": (1, 3, 4),
            "config7": (1, 2, 3, 4),
        }
        assert NetworkSpec.attachment_for("config5") == (2, 3, 4)
        with pytest.raises(ValueError):
            NetworkSpec.attachment_for("config8")

    def test_empty_attachment_rejected(self):
        with pytest.raises(ValueError):
            small_spec(attachment=())

    def test_attachment_outside_blocks_rejected(self):
        with pytest.raises(ValueError):
            small_spec(attachment=(3,), num_blocks=2)

    def test_collapsed_width_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(family="resnet", width_multiplier=0.01)

    def test_block_channels(self):
        assert NetworkSpec(family="vgg").block_channels() == [64, 128, 256, 512]
        assert NetworkSpec(family="resnet").block_channels() == [16, 16, 32, 64]
        assert NetworkSpec(family="wide-resnet", widen_factor=10).block_channels() == \
            [16, 160, 320, 640]
        assert NetworkSpec(family="resnet", width_multiplier=0.25).block_channels() == \
            [4, 4, 8, 16]


class TestBuild:
    @pytest.mark.parametrize("family", ["vgg", "resnet", "wide-resnet"])
    def test_config7_attaches_four_heads(self, family):
        spec = NetworkSpec(family=family, depth_k=1, width_multiplier=0.125,
                           widen_factor=2, attachment=(1, 2, 3, 4),
                           num_classes=4, input_shape=(16, 16, 3))
        state = build_network(spec, seed=0)
        assert len(state.heads) == 4
        assert [h.attach_block for h in state.heads] == [1, 2, 3, 4]

    def test_head_bias_follows_a_swapped_param(self):
        state = build_network(small_spec(attachment=(1, 2)), seed=0)
        swapped = Tensor(np.ones(3), requires_grad=True)
        state.params["head2.fc.bias"] = swapped
        assert state.heads[1].fc_bias is swapped

    def test_resnet_parameter_count_matches_closed_form(self):
        spec = NetworkSpec(family="resnet", depth_k=1, width_multiplier=1.0,
                           attachment=(1, 2, 3, 4), num_classes=10,
                           input_shape=(32, 32, 3))
        state = build_network(spec, seed=0)

        def conv(kh, kw, cin, cout):
            return kh * kw * cin * cout + cout

        def bn(c):
            return 2 * c

        def unit(cin, cout):
            total = bn(cin) + conv(3, 3, cin, cout) + bn(cout) + conv(3, 3, cout, cout)
            if cin != cout:
                total += conv(1, 1, cin, cout)
            return total

        def head(d, c):
            return d * c + c

        expected = (
            conv(3, 3, 3, 16)                    # stem
            + unit(16, 16)                       # block 2
            + unit(16, 32)                       # block 3 (projected skip)
            + unit(32, 64)                       # block 4 (projected skip)
            + head(16, 10) + head(16, 10) + head(32, 10) + head(64, 10)
        )
        assert expected == 78728
        assert sum(t.data.size for t in state.params.values()) == expected

    def test_same_seed_is_bit_identical(self):
        spec = small_spec()
        a = build_network(spec, seed=7)
        b = build_network(spec, seed=7)
        assert sorted(a.params) == sorted(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        spec = small_spec()
        a = build_network(spec, seed=7)
        b = build_network(spec, seed=8)
        assert any(not np.array_equal(a.params[n].data, b.params[n].data)
                   for n in a.params if n.endswith("kernel"))


def reference_build(spec, seed, dtype):
    """The trunk layout written out by hand, as build_network made it before
    the forward walk did: (params, buffers)."""
    rng = np.random.default_rng(seed)
    params, buffers = {}, {}

    def add_param(name, shape, fan_in=None):
        if fan_in is None:
            data = np.zeros(shape, dtype=dtype)
        else:
            std = np.sqrt(2.0 / fan_in)
            data = (rng.standard_normal(shape) * std).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)

    def add_conv(name, kh, kw, cin, cout):
        add_param(f"{name}.kernel", (kh, kw, cin, cout), fan_in=kh * kw * cin)
        add_param(f"{name}.bias", (cout,))

    def add_bn(name, c):
        params[f"{name}.gamma"] = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        params[f"{name}.beta"] = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        buffers[f"{name}.running_mean"] = np.zeros(c, dtype=dtype)
        buffers[f"{name}.running_var"] = np.ones(c, dtype=dtype)

    chans = spec.block_channels()
    cin = spec.input_shape[2]
    for block in range(1, spec.num_blocks + 1):
        cout = chans[block - 1]
        if spec.family == "vgg":
            for j in range(1, VGG_CONVS_PER_BLOCK[block - 1] + 1):
                add_conv(f"block{block}.conv{j}", 3, 3, cin, cout)
                cin = cout
        elif block == 1:
            add_conv("block1.conv1", 3, 3, cin, cout)
            cin = cout
        else:
            for u in range(1, spec.depth_k + 1):
                unit = f"block{block}.unit{u}"
                ucin = cin if u == 1 else cout
                add_bn(f"{unit}.bn1", ucin)
                add_conv(f"{unit}.conv1", 3, 3, ucin, cout)
                add_bn(f"{unit}.bn2", cout)
                add_conv(f"{unit}.conv2", 3, 3, cout, cout)
                if ucin != cout:
                    add_conv(f"{unit}.proj", 1, 1, ucin, cout)
            cin = cout

    for block in spec.attachment:
        d = chans[block - 1]
        add_param(f"head{block}.fc.weight", (d, spec.num_classes), fan_in=d)
        add_param(f"head{block}.fc.bias", (spec.num_classes,))
    return params, buffers


def reference_forward(spec, p, b, x, mode):
    """The hand-written forward pass that went with reference_build."""
    def bn(name, t):
        return batch_norm(t, p[f"{name}.gamma"], p[f"{name}.beta"],
                          b[f"{name}.running_mean"], b[f"{name}.running_var"], mode=mode)

    logits = []
    for block in range(1, spec.num_blocks + 1):
        if spec.family == "vgg":
            for j in range(1, VGG_CONVS_PER_BLOCK[block - 1] + 1):
                x = relu(conv2d(x, p[f"block{block}.conv{j}.kernel"],
                                p[f"block{block}.conv{j}.bias"], pad=1))
        elif block == 1:
            x = conv2d(x, p["block1.conv1.kernel"], p["block1.conv1.bias"], pad=1)
        else:
            for u in range(1, spec.depth_k + 1):
                unit = f"block{block}.unit{u}"
                h = relu(bn(f"{unit}.bn1", x))
                h = conv2d(h, p[f"{unit}.conv1.kernel"], p[f"{unit}.conv1.bias"], pad=1)
                h = relu(bn(f"{unit}.bn2", h))
                h = conv2d(h, p[f"{unit}.conv2.kernel"], p[f"{unit}.conv2.bias"], pad=1)
                if f"{unit}.proj.kernel" in p:
                    skip = conv2d(x, p[f"{unit}.proj.kernel"], p[f"{unit}.proj.bias"])
                else:
                    skip = x
                x = residual_add(h, skip)
        if block in spec.attachment:
            logits.append(linear(global_average_pool(x), p[f"head{block}.fc.weight"],
                                 p[f"head{block}.fc.bias"]))
        if block < spec.num_blocks:
            x = max_pool2(x)
    return logits


def bit_differences(got: dict, want: dict) -> list:
    """Names whose order, shape, dtype or bytes differ between two tensor dicts."""
    if list(got) != list(want):
        return [f"names {list(got)} != {list(want)}"]
    def array(t):
        return t.data if isinstance(t, Tensor) else t

    arrays = [(n, array(got[n]), array(want[n])) for n in got]
    return [n for n, a, w in arrays
            if a.shape != w.shape or a.dtype != w.dtype or a.tobytes() != w.tobytes()]


class TestWalkMatchesReferenceLayout:
    """The forward walk builds what the hand-written layout built, bit for bit,
    and computes the same logits and batch-norm statistics."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("family", ["vgg", "resnet", "wide-resnet"])
    def test_grid(self, family, dtype):
        width = 1 / 16 if family == "vgg" else 0.25
        images = np.random.default_rng(5).standard_normal((2, 8, 8, 3)).astype(dtype)
        seed = 0
        for depth_k in (1, 2):
            for num_blocks in (1, 2, 3, 4):
                for attachment in ((1,), (num_blocks,), tuple(range(1, num_blocks + 1))):
                    seed += 1
                    spec = NetworkSpec(family=family, depth_k=depth_k, width_multiplier=width,
                                       widen_factor=2, attachment=attachment, num_classes=3,
                                       input_shape=(8, 8, 3), num_blocks=num_blocks)
                    state = build_network(spec, seed=seed, dtype=dtype)
                    params, buffers = reference_build(spec, seed, dtype)
                    assert bit_differences(state.params, params) == [], spec
                    assert bit_differences(state.buffers, buffers) == [], spec
                    assert [h.attach_block for h in state.heads] == list(attachment)
                    for mode in ("train", "infer"):
                        got = forward_heads(state, images, mode=mode)
                        want = reference_forward(spec, params, buffers, Tensor(images), mode)
                        assert bit_differences(dict(enumerate(got)),
                                               dict(enumerate(want))) == [], (spec, mode)
                        assert bit_differences(state.buffers, buffers) == [], (spec, mode)


class TestForwardHeads:
    def test_single_attachment_gives_one_head(self, rng):
        spec = small_spec(attachment=(2,))
        state = build_network(spec, seed=0)
        logits = forward_heads(state, rng.standard_normal((3, 8, 8, 1)), mode="infer")
        assert len(logits) == 1
        assert logits[0].shape == (3, 3)

    def test_head_dimensions_match_block_channels(self, rng):
        spec = NetworkSpec(family="resnet", depth_k=1, width_multiplier=0.25,
                           attachment=(1, 2, 3, 4), num_classes=5,
                           input_shape=(16, 16, 3))
        state = build_network(spec, seed=0)
        chans = spec.block_channels()
        for head, c in zip(state.heads, chans):
            assert state.params[f"head{head.attach_block}.fc.weight"].shape == (c, 5)
        logits = forward_heads(state, rng.standard_normal((2, 16, 16, 3)), mode="infer")
        assert [t.shape for t in logits] == [(2, 5)] * 4

    def test_zero_weight_heads_give_zero_logits(self, rng):
        spec = small_spec()
        state = build_network(spec, seed=0)
        for name, t in state.params.items():
            if name.startswith("head"):
                t.data[...] = 0.0
        logits = forward_heads(state, rng.standard_normal((4, 8, 8, 1)), mode="infer")
        for t in logits:
            np.testing.assert_array_equal(t.data, 0.0)

    def test_shape_mismatch_rejected(self, rng):
        state = build_network(small_spec(), seed=0)
        with pytest.raises(ValueError):
            forward_heads(state, rng.standard_normal((2, 8, 9, 1)))

    def test_forward_is_deterministic(self, rng):
        spec = small_spec()
        images = rng.standard_normal((3, 8, 8, 1))
        out_a = forward_heads(build_network(spec, seed=3), images, mode="infer")
        out_b = forward_heads(build_network(spec, seed=3), images, mode="infer")
        for a, b in zip(out_a, out_b):
            np.testing.assert_array_equal(a.data, b.data)


class TestMsnLoss:
    def make_heads(self, rng, count, n=12, c=4):
        """Shared labels and one logits tensor per head."""
        y = rng.integers(0, c, n)
        return y, [Tensor(rng.standard_normal((n, c)) * 2, requires_grad=True)
                   for _ in range(count)]

    @pytest.mark.parametrize("count", [2, 3, 4])
    @pytest.mark.parametrize("within_weight", [0.0, 0.7])
    def test_each_head_equals_msl_total_alone(self, rng, count, within_weight):
        # classes 3, 4 and 2 have two or more members and come unsorted;
        # class 0 has one member and class 1 none. Weight 0 is how a ce run
        # trains, and it still records the per-class distances.
        y = np.array([3, 4, 2, 3, 0, 2, 4, 3, 2, 4, 3])
        logits = [Tensor(rng.standard_normal((len(y), 5)) * 2, requires_grad=True)
                  for _ in range(count)]
        xi_states = [XiState(initial_xi=0.1 * (h + 1) ** 3) for h in range(count)]
        loss, _, per_head = attach_msn_loss(logits, y, xi_states, within_weight)
        loss.backward()
        for t, xi_state, breakdown in zip(logits, xi_states, per_head):
            alone, alone_grad = msl_total(LogitBatch(q=t.data, y=y), xi_state.xi,
                                          within_weight=within_weight)
            assert breakdown == alone
            assert list(breakdown.per_class_distance) == [2, 3, 4]
            np.testing.assert_array_equal(t.grad, alone_grad * (1.0 / count))

    def test_each_head_checks_its_own_logits(self, rng):
        logits = [Tensor(rng.standard_normal((4, 3))) for _ in range(3)]
        logits[2].data[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            attach_msn_loss(logits, np.array([0, 0, 1, 1]),
                            [XiState() for _ in logits])

    def test_empty_head_list_rejected(self):
        with pytest.raises(ValueError):
            attach_msn_loss([], np.array([0, 1]), [])

    def test_one_xi_state_per_head_required(self, rng):
        y, logits = self.make_heads(rng, 2)
        with pytest.raises(ValueError):
            attach_msn_loss(logits, y, [XiState()])

    def test_loss_reads_xi_and_never_writes_it(self, rng):
        y, logits = self.make_heads(rng, 2)
        xi_states = [XiState(initial_xi=0.1 * (h + 1), window=3) for h in range(2)]
        for h, xi_state in enumerate(xi_states):
            xi_state.history.extend([1.0 + h, 2.0 + h])
        before = [(xi.xi, list(xi.history)) for xi in xi_states]
        loss, _, _ = attach_msn_loss(logits, y, xi_states)
        loss.backward()
        assert [(xi.xi, list(xi.history)) for xi in xi_states] == before

    def test_update_xi_true_raises(self, rng):
        y, logits = self.make_heads(rng, 2)
        xi_states = [XiState() for _ in logits]
        with pytest.raises(ValueError, match="train updates each head's xi"):
            attach_msn_loss(logits, y, xi_states, update_xi=True)
        assert all(len(xi.history) == 0 for xi in xi_states)


class TestEndToEnd:
    def test_gradient_reaches_block1_kernels(self, rng):
        spec = small_spec(attachment=(1, 2))
        state = build_network(spec, seed=1)
        images = rng.standard_normal((8, 8, 8, 1)).astype(np.float32)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        logits = forward_heads(state, images, mode="train")
        loss, _, _ = attach_msn_loss(logits, labels, [h.xi_state for h in state.heads])
        loss.backward()
        g = state.params["block1.conv1.kernel"].grad
        assert g is not None and float(np.abs(g).sum()) > 0.0

    def test_all_blocks_attached_reach_every_parameter(self, rng):
        spec = NetworkSpec(family="resnet", depth_k=1, width_multiplier=0.25,
                           attachment=(1, 2, 3, 4), num_classes=3,
                           input_shape=(16, 16, 3))
        state = build_network(spec, seed=2)
        images = rng.standard_normal((6, 16, 16, 3)).astype(np.float32)
        labels = np.array([0, 0, 1, 1, 2, 2])
        logits = forward_heads(state, images, mode="train")
        loss, _, _ = attach_msn_loss(logits, labels, [h.xi_state for h in state.heads])
        loss.backward()
        for name, t in state.params.items():
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad)), name
        assert float(np.abs(state.params["block1.conv1.kernel"].grad).sum()) > 0.0


class TestGraphLifetime:
    def test_trunk_freed_without_the_cyclic_collector(self, rng, monkeypatch):
        state = build_network(small_spec(), seed=0)
        images = rng.standard_normal((6, 8, 8, 1)).astype(np.float32)
        labels = np.array([0, 0, 1, 1, 2, 2])
        trunk = []  # weak references to every conv output's values

        def traced_conv2d(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            trunk.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(network, "conv2d", traced_conv2d)
        gc.disable()
        try:
            predict(state, images)
            assert len(trunk) == 7 and all(r() is None for r in trunk)
            trunk.clear()
            logits = forward_heads(state, images, mode="train")
            loss, _, _ = attach_msn_loss(logits, labels, [h.xi_state for h in state.heads])
            assert len(trunk) == 7 and all(r() is not None for r in trunk)
            loss.backward()
            assert all(r() is None for r in trunk)
        finally:
            gc.enable()

    def test_loss_under_no_grad_has_no_graph(self, rng):
        state = build_network(small_spec(), seed=0)
        images = rng.standard_normal((6, 8, 8, 1)).astype(np.float32)
        with no_grad():
            logits = forward_heads(state, images, mode="train")
            loss, _, _ = attach_msn_loss(logits, np.array([0, 0, 1, 1, 2, 2]),
                                         [h.xi_state for h in state.heads])
        assert not loss.requires_grad and loss._prev == ()


def fixed_head_network(deep_bias, shallow_bias=(0.0, 0.0, 1.0)):
    """Two heads with zero FC weights: each scores every image with its bias."""
    state = build_network(small_spec(attachment=(1, 2)), seed=0)
    for b, bias in ((1, shallow_bias), (2, deep_bias)):
        state.params[f"head{b}.fc.weight"].data[...] = 0.0
        state.params[f"head{b}.fc.bias"].data[...] = bias
    return state


class TestPredict:
    def test_argmax(self, rng):
        # the shallow head's unique maximum is class 2, the deepest head's class 1
        state = fixed_head_network(deep_bias=[0.1, 0.9, -0.3])
        preds = predict(state, rng.standard_normal((5, 8, 8, 1)))
        np.testing.assert_array_equal(preds, [1] * 5)

    @pytest.mark.parametrize("config", ["blobs_small", "cifar_subset"])
    def test_blocks_agree_with_one_pass(self, rng, config):
        # predict runs the trunk in blocks of PREDICT_BLOCK images; on
        # blobs_small a block's logits can differ from one whole pass in the
        # last bits (BLAS picks its GEMM kernel by row count), never its argmax
        # on these inputs
        spec = RunConfig.from_file(CONFIGS / f"{config}.json").network
        state = build_network(spec, seed=0)
        images = rng.standard_normal((300, *spec.input_shape)).astype(np.float32)
        for n in (0, 1, 63, 64, 65, 256, 300):
            preds = predict(state, images[:n])
            with no_grad():
                whole = forward_heads(state, images[:n], mode="infer")[-1].data
            assert preds.shape == (n,) and preds.dtype == np.int64
            np.testing.assert_array_equal(preds, whole.argmax(axis=1))

    def test_tie_breaks_to_lowest_index(self, rng):
        # classes 1 and 2 tie on the deepest head for every image
        state = fixed_head_network(deep_bias=[-1.0, 0.5, 0.5])
        preds = predict(state, rng.standard_normal((5, 8, 8, 1)))
        np.testing.assert_array_equal(preds, [1] * 5)
