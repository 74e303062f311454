"""Schedules, the optimizer recurrence, the training loop, evaluation, and
checkpoint loads. Byte-identical reruns and resume equivalence are criterion
10's."""

import numpy as np
import pytest

from msn import checkpoint as C
from msn import trainer
from msn.data import synthetic_blobs
from msn.losses import LogitBatch, XiConfig, XiState, msl_total
from msn.network import NetworkSpec, attach_msn_loss, build_network, forward_heads, predict
from msn.tensor import NonFiniteError, Tensor
from msn.trainer import (
    CSV_HEADER,
    OptimizerState,
    TrainConfig,
    TrainingDivergedError,
    batch_indices_for_iteration,
    evaluate,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    sgd_momentum_step,
    train,
)

from test_checkpoint import header_offsets


def tiny_spec(**overrides):
    base = dict(family="vgg", width_multiplier=1 / 32, attachment=(2,),
                num_classes=3, input_shape=(8, 8, 1), num_blocks=2)
    base.update(overrides)
    return NetworkSpec(**base)


def tiny_blobs(seed=0, classes=3, per_class=20, separation=6.0):
    return synthetic_blobs(classes, per_class, image_shape=(8, 8, 1),
                           separation=separation, rng=np.random.default_rng(seed))


def tiny_config(**overrides):
    base = dict(iterations=12, batch_size=9, lr=0.01, eval_interval=5,
                batching="class-aware", seed=0, xi=XiConfig(window=4))
    base.update(overrides)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_paper_defaults(self):
        cfg = TrainConfig(iterations=1)
        assert lr_schedule(cfg, 0) == pytest.approx(0.01, abs=0)
        assert lr_schedule(cfg, 20_000) == pytest.approx(0.009, rel=1e-12)
        assert lr_schedule(cfg, 40_000) == pytest.approx(0.0081, rel=1e-12)

    def test_divide_by_ten_mode(self):
        cfg = TrainConfig(iterations=1, lr_decay=0.1, lr_period=10)
        assert lr_schedule(cfg, 10) == pytest.approx(0.001, rel=1e-12)


class TestSgdMomentum:
    def make_param(self, value):
        return {"w": Tensor(np.array(value, dtype=np.float64), requires_grad=True)}

    def test_zero_gradient_leaves_parameters(self):
        params = self.make_param([1.0, 2.0])
        params["w"].grad = np.zeros(2)
        opt = OptimizerState.zeros_like(params)
        sgd_momentum_step(params, opt, lr=0.1, momentum=0.9)
        np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])

    def test_first_step(self):
        params = self.make_param([1.0])
        params["w"].grad = np.array([2.0])
        opt = OptimizerState.zeros_like(params)
        sgd_momentum_step(params, opt, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(params["w"].data, [1.0 - 0.1 * 2.0], rtol=0)

    def test_two_steps_match_unrolled_recurrence(self):
        w0, g1, g2, lr = 3.0, 0.7, -1.3, 0.05
        params = self.make_param([w0])
        opt = OptimizerState.zeros_like(params)
        params["w"].grad = np.array([g1])
        sgd_momentum_step(params, opt, lr=lr, momentum=0.9)
        params["w"].grad = np.array([g2])
        sgd_momentum_step(params, opt, lr=lr, momentum=0.9)
        expected = w0 - lr * g1 - lr * (0.9 * g1 + g2)
        assert params["w"].data[0] == pytest.approx(expected, abs=0)

    def test_non_finite_gradient_fails_fast(self):
        params = self.make_param([1.0])
        params["w"].grad = np.array([np.nan])
        opt = OptimizerState.zeros_like(params)
        with pytest.raises(NonFiniteError):
            sgd_momentum_step(params, opt, lr=0.1, momentum=0.9)

    def test_block_after_the_deepest_head_takes_no_step(self):
        # block 2 feeds no head, so backward leaves its gradients None and the
        # step skips those parameters: no update and no velocity
        spec = tiny_spec(attachment=(1,))
        fresh = build_network(spec, seed=0)
        result = train(tiny_config(iterations=3), spec, tiny_blobs())
        for name, p in result.state.params.items():
            if name.startswith("block2."):
                assert p.data.tobytes() == fresh.params[name].data.tobytes(), name
                assert not result.opt_state.velocity[name].any(), name
            else:
                assert p.data.tobytes() != fresh.params[name].data.tobytes(), name

    def test_velocity_shapes_mirror_parameters(self):
        spec = tiny_spec()
        state = build_network(spec, seed=0)
        opt = OptimizerState.zeros_like(state.params)
        assert set(opt.velocity) == set(state.params)
        for name, v in opt.velocity.items():
            assert v.shape == state.params[name].data.shape


class TestBatchSelection:
    def test_deterministic_per_iteration(self):
        ds = tiny_blobs()
        cfg = tiny_config()
        a = batch_indices_for_iteration(ds, cfg, 5)
        b = batch_indices_for_iteration(ds, cfg, 5)
        np.testing.assert_array_equal(a, b)


class TestEvaluate:
    def test_all_correct_and_all_wrong(self):
        spec = tiny_spec()
        state = build_network(spec, seed=1)
        ds = tiny_blobs()
        preds = predict(state, ds.images)
        perfect = type(ds)(images=ds.images, labels=preds, num_classes=3)
        assert evaluate(state, perfect) == 0.0
        wrong = type(ds)(images=ds.images, labels=(preds + 1) % 3, num_classes=3)
        assert evaluate(state, wrong) == 1.0

    def test_random_state_on_balanced_binary_data(self):
        spec = tiny_spec(num_classes=2)
        state = build_network(spec, seed=2)
        ds = synthetic_blobs(2, 500, image_shape=(8, 8, 1), separation=1.0,
                             rng=np.random.default_rng(3))
        err = evaluate(state, ds)
        assert 0.35 <= err <= 0.65


class TestTrainLoop:
    def test_zero_iterations_returns_initial_state_and_empty_log(self):
        spec = tiny_spec()
        ds = tiny_blobs()
        result = train(tiny_config(iterations=0), spec, ds)
        fresh = build_network(spec, seed=0)
        assert not result.rows
        for name in fresh.params:
            np.testing.assert_array_equal(result.state.params[name].data,
                                          fresh.params[name].data)

    def test_csv_layout(self, tmp_path):
        spec = tiny_spec()  # head on block 2 only
        ds = tiny_blobs()
        train(tiny_config(iterations=6, eval_interval=5), spec, ds,
              eval_dataset=tiny_blobs(seed=2), csv_path=tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == "" and first[4] == "" and first[5] == ""  # heads 1, 3, 4 absent
        assert first[3] != ""                                        # head 2 present
        assert first[10] == ""                  # iteration 0 is not an eval point
        fifth = lines[5].split(",")
        assert fifth[10] != ""                  # iteration 4 is the 5th step
        assert float(fifth[10]) >= 0.0

    def test_flip_augmentation_is_deterministic(self):
        spec = tiny_spec()
        ds = tiny_blobs()
        a = train(tiny_config(), spec, ds, flip=True)
        b = train(tiny_config(), spec, ds, flip=True)
        for name in a.state.params:
            np.testing.assert_array_equal(a.state.params[name].data,
                                          b.state.params[name].data)

    def test_divergence_reports_iteration(self):
        spec = tiny_spec()
        ds = tiny_blobs()
        huge = type(ds)(images=(ds.images * 1e30).astype(np.float32),
                        labels=ds.labels, num_classes=ds.num_classes)
        with pytest.raises(TrainingDivergedError) as exc:
            train(tiny_config(), spec, huge)
        assert exc.value.iteration == 0

    def test_xi_monotone_across_run(self):
        spec = tiny_spec(attachment=(1, 2))
        ds = tiny_blobs()
        result = train(tiny_config(iterations=40, xi=XiConfig(window=2)), spec, ds)
        for block in (1, 2):
            series = [row.xi[block] for row in result.rows]
            assert all(a >= b for a, b in zip(series, series[1:]))
            assert all(x >= 1e-4 for x in series)

    def test_each_head_xi_advances_with_its_own_within_loss(self, monkeypatch):
        # a window of 10 keeps the 6 values from reaching a plateau test, and
        # a small xi keeps both heads' hinges active, so their losses differ
        spec = tiny_spec(attachment=(1, 2))
        ds = tiny_blobs()
        config = tiny_config(iterations=6, xi=XiConfig(initial=0.01, window=10))
        seen = []  # (labels, [(logits, xi) per head]) per iteration

        def spy(logits, labels, xi_states, *args, **kwargs):
            seen.append((labels, [(t.data.copy(), xi.xi) for t, xi in zip(logits, xi_states)]))
            return attach_msn_loss(logits, labels, xi_states, *args, **kwargs)

        monkeypatch.setattr(trainer, "attach_msn_loss", spy)
        result = train(config, spec, ds)
        histories = [list(h.xi_state.history) for h in result.state.heads]
        assert len(seen) == 6 and [len(history) for history in histories] == [6, 6]
        assert histories[0] != histories[1]
        for it, (labels, heads) in enumerate(seen):
            for history, (q, xi) in zip(histories, heads):
                assert xi == 0.01
                alone, _ = msl_total(LogitBatch(q=q, y=labels), xi)
                assert history[it] == alone.within

        # the first batch, scored from scratch: a fresh network, its batch, xi 0.01
        fresh = build_network(spec, config.seed)
        idx = batch_indices_for_iteration(ds, config, 0)
        logits = forward_heads(fresh, ds.images[idx], mode="train")
        for history, t in zip(histories, logits):
            alone, _ = msl_total(LogitBatch(q=t.data, y=ds.labels[idx]), 0.01)
            assert history[0] == alone.within > 0.0


class TestCheckpointResume:
    def test_save_load_roundtrip_of_training_state(self, tmp_path):
        spec = tiny_spec(attachment=(1, 2))
        ds = tiny_blobs()
        result = train(tiny_config(iterations=7), spec, ds)
        path = tmp_path / "run.ckpt"
        save_checkpoint(result.state, result.opt_state,
                        [h.xi_state for h in result.state.heads], path, iteration=7)
        state, opt, iteration = load_checkpoint(path, spec)
        assert iteration == 7
        for name in result.state.params:
            np.testing.assert_array_equal(state.params[name].data,
                                          result.state.params[name].data)
        for name in result.state.buffers:
            np.testing.assert_array_equal(state.buffers[name],
                                          result.state.buffers[name])
        for name in result.opt_state.velocity:
            np.testing.assert_array_equal(opt.velocity[name],
                                          result.opt_state.velocity[name])
        for fresh, trained in zip(state.heads, result.state.heads):
            assert fresh.xi_state.xi == trained.xi_state.xi
            assert list(fresh.xi_state.history) == list(trained.xi_state.history)

    def test_load_checkpoint_missing_parameter(self, tmp_path):
        spec = tiny_spec()
        state = build_network(spec, seed=0)
        opt = OptimizerState.zeros_like(state.params)
        path = tmp_path / "x.ckpt"
        save_checkpoint(state, opt, [h.xi_state for h in state.heads], path)
        bigger = tiny_spec(attachment=(1, 2))
        with pytest.raises(C.CheckpointError):
            load_checkpoint(path, bigger)


def trained_checkpoint(tmp_path, attachment=(1, 2), xi_window=4):
    """A checkpoint of a short run: nonzero velocities, xi histories in use."""
    spec = tiny_spec(attachment=attachment)
    result = train(tiny_config(iterations=7, xi=XiConfig(window=xi_window)), spec,
                   tiny_blobs())
    path = tmp_path / "run.ckpt"
    save_checkpoint(result.state, result.opt_state,
                    [h.xi_state for h in result.state.heads], path, iteration=7)
    return spec, path


def rewrite(path, edit):
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its tensors."""
    tensors = C.read_tensors(path)
    edit(tensors)
    C.write_tensors(path, tensors)


class TestStrictLoad:
    """A checkpoint loads only if it holds exactly what save_checkpoint writes."""

    def test_truncation_at_every_offset_is_rejected(self, tmp_path):
        spec, path = trained_checkpoint(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(C.CheckpointError):
                load_checkpoint(cut, spec)

    def test_bit_flip_outside_tensor_values_is_rejected(self, tmp_path):
        # magic, version, count, name lengths, names, dtype/rank and extents;
        # a flip inside tensor values still loads (the format has no checksum)
        spec, path = trained_checkpoint(tmp_path)
        raw = path.read_bytes()
        flipped = tmp_path / "flipped.ckpt"
        for offset in header_offsets(raw):
            bad = bytearray(raw)
            bad[offset] ^= 1 << offset % 8
            flipped.write_bytes(bytes(bad))
            with pytest.raises(C.CheckpointError):
                load_checkpoint(flipped, spec)

    @pytest.mark.parametrize("name", ["opt.velocity.block1.conv1.bias",
                                      "opt.velocity.head2.fc.weight",
                                      "xi.head1.state", "meta.iteration"])
    def test_missing_tensor_is_rejected_by_name(self, tmp_path, name):
        spec, path = trained_checkpoint(tmp_path)
        rewrite(path, lambda tensors: tensors.pop(name))
        with pytest.raises(C.CheckpointError, match=rf"missing \['{name}'\], unexpected \[\]"):
            load_checkpoint(path, spec)

    def test_extra_head_is_rejected_by_name(self, tmp_path):
        _, path = trained_checkpoint(tmp_path, attachment=(1, 2))
        with pytest.raises(C.CheckpointError) as exc:
            load_checkpoint(path, tiny_spec(attachment=(2,)))
        extra = ["head1.fc.bias", "head1.fc.weight", "opt.velocity.head1.fc.bias",
                 "opt.velocity.head1.fc.weight", "xi.head1.state"]
        assert str(exc.value).endswith(f"missing [], unexpected {extra}")

    def test_xi_history_longer_than_the_window_is_rejected(self, tmp_path):
        # 7 iterations at window 4 leave 7 losses, more than window 3 holds
        spec, path = trained_checkpoint(tmp_path, xi_window=4)
        assert len(C.read_tensors(path)["xi.head1.state"]) == 2 + 7
        _, _, iteration = load_checkpoint(path, spec, xi_factory=lambda: XiState(window=4))
        assert iteration == 7
        with pytest.raises(C.CheckpointError, match="xi.head1.state"):
            load_checkpoint(path, spec, xi_factory=lambda: XiState(window=3))

    @pytest.mark.parametrize("packed", [[0.5], [0.5, 3.0, 1.0, 2.0], [0.5, 1.0, 1.0, 2.0],
                                        [0.5, np.nan, 1.0]])
    def test_xi_count_must_match_its_history(self, tmp_path, packed):
        spec, path = trained_checkpoint(tmp_path)
        rewrite(path, lambda tensors: tensors.update(
            {"xi.head2.state": np.array(packed, dtype=np.float64)}))
        with pytest.raises(C.CheckpointError, match="xi.head2.state"):
            load_checkpoint(path, spec)

    @pytest.mark.parametrize("name,shape", [("head2.fc.bias", (4,)),
                                            ("opt.velocity.block2.conv1.kernel", (3, 3, 2, 5)),
                                            ("meta.iteration", (2,))])
    def test_wrong_shape_is_rejected_by_name(self, tmp_path, name, shape):
        spec, path = trained_checkpoint(tmp_path)
        rewrite(path, lambda tensors: tensors.update({name: np.zeros(shape, np.float32)}))
        with pytest.raises(C.CheckpointError, match=rf"^{name}: checkpoint shape"):
            load_checkpoint(path, spec)

    @pytest.mark.parametrize("value", [-1.0, 2.5, np.nan, np.inf])
    def test_iteration_must_be_a_count(self, tmp_path, value):
        spec, path = trained_checkpoint(tmp_path)
        rewrite(path, lambda tensors: tensors.update({"meta.iteration": np.array([value])}))
        with pytest.raises(C.CheckpointError, match="iteration"):
            load_checkpoint(path, spec)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(momentum=1.0), dict(momentum=-0.1), dict(lr=0.0), dict(batch_size=0),
        dict(iterations=-1), dict(batching="sorted"), dict(lr_decay=0.0),
        dict(seed=-1), dict(loss="hinge"), dict(lr_period=0),
        dict(eval_interval=0),
    ])
    def test_rejects(self, bad):
        kwargs = {"iterations": 1, **bad}
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("bad", [dict(window=0), dict(decay=1.0), dict(floor=-1.0)])
    def test_xi_rejects(self, bad):
        with pytest.raises(ValueError):
            XiConfig(**bad)
