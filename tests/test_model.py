"""Branch architecture, routing, fusion, hallucination init, checkpoints."""
import itertools
from pathlib import Path

import numpy as np
import pytest
from checkpoint_records import assert_one_store, read_records

from hallucinet.engine import Tensor, channel_softmax, frozen
from hallucinet.model import (
    BranchConfig,
    CheckpointError,
    MissingModalityError,
    ModelBundle,
    build_branch,
    ensemble_predict,
    fuse_logits,
    init_hallucination_from,
    load_checkpoint,
    predict,
    predict_probs,
    save_checkpoint,
    select_branches,
)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=np.float64)


class TestBranchConfig:
    def test_downsample_factor(self):
        assert BranchConfig(class_count=4).downsample_factor == 32
        assert BranchConfig(class_count=4, blocks=((8, 2), (16, 2)),
                            first_conv_stride=1, tap_depth=2).downsample_factor == 4

    def test_tap_depth_validated(self):
        with pytest.raises(ValueError):
            BranchConfig(class_count=4, blocks=((8, 2),), tap_depth=2)

    def test_widths_validated(self):
        with pytest.raises(ValueError):
            BranchConfig(class_count=4, blocks=((0, 2),))

    @pytest.mark.parametrize("blocks, stride, size, radius", [
        (((8, 2), (16, 2), (24, 2)), 2, 192, 50),
        (((32, 2), (64, 2), (128, 2), (256, 2)), 2, 320, 106),
        (((6, 1),) * 4, 1, 160, 38),
    ])
    def test_receptive_radius_equals_impulse_probe(self, blocks, stride, size, radius):
        cfg = BranchConfig(class_count=4, blocks=blocks, first_conv_stride=stride,
                           tap_depth=2)
        assert cfg.receptive_radius == radius
        assert _impulse_reach(cfg, size) == radius


def _impulse_reach(config: BranchConfig, size: int) -> int:
    """Farthest distance from one changed input pixel to an output pixel
    whose logits change, over every phase of the downsample factor."""
    branch = build_branch(config, 3, "rgb", 7)
    x = np.random.default_rng(7).random((1, 3, size, size), dtype=np.float32)
    factor = config.downsample_factor
    centre = size // 2 - size // 2 % factor
    reach = 0
    with frozen(branch.parameters()):
        base = branch.forward(x).logits.data[0]
        for phase in range(0, factor, 2):
            # the row probes one phase, the column the next
            r, c = centre + phase, centre + phase + 1
            probe = x.copy()
            probe[0, :, r, c] += 50.0
            changed = (branch.forward(probe).logits.data[0] != base).any(axis=0)
            rows = np.flatnonzero(changed.any(axis=1))
            cols = np.flatnonzero(changed.any(axis=0))
            assert 0 < rows[0] and rows[-1] < size - 1 and 0 < cols[0] and cols[-1] < size - 1
            reach = max(reach, r - rows[0], rows[-1] - r, c - cols[0], cols[-1] - c)
    return int(reach)


class TestBuildForward:
    def test_default_geometry(self, rng):
        cfg = BranchConfig(class_count=5)
        branch = build_branch(cfg, 3, "rgb", 1)
        out = branch.forward(rng.random((1, 3, 256, 256), dtype=np.float32))
        assert out.logits.shape == (1, 5, 256, 256)
        assert out.tap.shape[-2:] == (16, 16)  # 256 / (2 * 2^3)

    def test_two_block_stride_one_geometry(self, rng):
        cfg = BranchConfig(class_count=3, blocks=((8, 2), (12, 2)),
                           first_conv_stride=1, tap_depth=2)
        branch = build_branch(cfg, 2, "rgb", 1)
        out = branch.forward(rng.random((2, 2, 64, 64), dtype=np.float32))
        # pre-upsample map is 64 / 2^2 = 16; logits restored
        assert out.tap.shape == (2, 12, 16, 16)
        assert out.logits.shape == (2, 3, 64, 64)

    def test_seeded_builds_identical(self, tiny_config):
        a = build_branch(tiny_config, 3, "rgb", 42)
        b = build_branch(tiny_config, 3, "rgb", 42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)

    def test_infer_deterministic(self, tiny_config, rng):
        branch = build_branch(tiny_config, 3, "rgb", 0)
        x = rng.random((1, 3, 64, 64), dtype=np.float32)
        o1 = branch.forward(x, "infer")
        o2 = branch.forward(x, "infer")
        assert np.array_equal(o1.logits.data, o2.logits.data)

    def test_logits_own_their_data(self, tiny_config, rng):
        import tracemalloc

        branch = build_branch(tiny_config, 3, "rgb", 0)
        x = rng.random((1, 3, 128, 128), dtype=np.float32)
        with frozen(branch.parameters()):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                logits = branch.forward(x).logits.data
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert logits.flags.owndata
        # a view of the padded upsampling raster would hold 144^2/128^2 of it
        assert held <= logits.nbytes + 16 * 1024, (held, logits.nbytes)

    def test_channel_mismatch(self, tiny_config, rng):
        branch = build_branch(tiny_config, 3, "rgb", 0)
        with pytest.raises(ValueError):
            branch.forward(rng.random((1, 1, 64, 64), dtype=np.float32))

    def test_unknown_mode_rejected(self, tiny_config, rng):
        branch = build_branch(tiny_config, 3, "rgb", 0)
        x = rng.random((1, 3, 64, 64), dtype=np.float32)
        for frozen_params in ([], branch.parameters()):  # with and without a graph
            with frozen(frozen_params), pytest.raises(ValueError, match="mode must be"):
                branch.forward(x, "eval")

    def test_indivisible_extent_rejected(self, tiny_config, rng):
        branch = build_branch(tiny_config, 3, "rgb", 0)
        with pytest.raises(ValueError):
            branch.forward(rng.random((1, 3, 60, 60), dtype=np.float32))

    def test_hierarchical_unique_names(self, tiny_config):
        branch = build_branch(tiny_config, 3, "rgb", 0)
        names = [p.name for p in branch.parameters()]
        assert len(names) == len(set(names))
        assert all(n.startswith("rgb/") for n in names)
        assert "rgb/block0/conv0/weight" in names
        assert "rgb/score/weight" in names and "rgb/upsample/weight" in names

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_forward_from_a_tap_equals_the_whole_forward(self, tiny_config, rng, mode):
        """With the prefix frozen, as stage 4 holds a target branch, the
        prefix and then the blocks past it are the whole forward, bit for
        bit: tap, logits and running statistics."""
        from hallucinet.train import _tap_prefix

        x = rng.random((2, 1, 64, 64), dtype=np.float32)
        runs = []
        for split in (False, True):
            branch = build_branch(tiny_config, 1, "depth", 5)
            with frozen(_tap_prefix(branch)):
                tap = branch.prefix(x, mode) if split else None
                out = branch.forward(x, mode, tap=tap)
            assert out.logits.requires_grad and not out.tap.requires_grad
            runs.append([out.tap.data.tobytes(), out.logits.data.tobytes(),
                         *(a.tobytes() for name, a in branch.tensors().items()
                           if "/running_" in name)])
        assert runs[0] == runs[1]


def _buffer_bytes(arr: np.ndarray) -> int:
    """Bytes of the buffer an array keeps alive (its base, for a view)."""
    return (arr if arr.base is None else arr.base).nbytes


class TestTrainForwardMemory:
    def test_one_array_held_per_conv_unit(self, tiny_config, rng):
        import tracemalloc

        n, size = 2, 128
        branch = build_branch(tiny_config, 3, "rgb", 0)
        itemsize = np.dtype(np.float32).itemsize
        units = pools = 0
        side = size // tiny_config.first_conv_stride
        for width, convs in tiny_config.blocks:
            units += convs * n * width * side * side * itemsize
            side //= 2
            pools += n * width * side * side * itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = rng.random((n, 3, size, size), dtype=np.float32)
            out = branch.forward(x, "train")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.logits.requires_grad  # the graph for backward is alive
        # per unit only the conv output (batchnorm's input): the fused
        # batchnorm-ReLU output is released once the next op has read it
        bound = units + pools + _buffer_bytes(out.logits.data) + x.nbytes
        assert held <= 1.05 * bound, (held, bound)

    def test_release_changes_no_gradient_or_statistic(self, tiny_config, rng, monkeypatch):
        import hallucinet.model as model_mod
        from hallucinet.engine import backward, mul, tsum

        x = rng.random((2, 3, 64, 64), dtype=np.float32)
        upstream = rng.normal(size=(2, tiny_config.class_count, 64, 64)).astype(np.float32)
        real_release = model_mod.release

        def train_step(release):
            monkeypatch.setattr(model_mod, "release", release)
            branch = build_branch(tiny_config, 3, "rgb", 0)
            out = branch.forward(x, "train")
            loss = tsum(mul(out.logits, Tensor(upstream))) + tsum(mul(out.tap, out.tap))
            backward(loss)
            grads = [p.grad.tobytes() for p in branch.parameters()]
            return grads, [a.tobytes() for name, a in branch.tensors().items()
                           if "/running_" in name]

        released = []

        def counting_release(t):
            released.append(t.recompute is not None)
            real_release(t)

        assert train_step(counting_release) == train_step(lambda t: None)
        units = sum(convs for _, convs in tiny_config.blocks)
        # every unit's output once, and the first unit's conv output
        assert sum(released) == units + 1

    def test_step_between_forward_and_backward_raises(self, tiny_config, rng):
        """An optimizer step between a train forward and its backward moves
        the first unit's weight: batchnorm's backward must not rebuild the
        released conv output from it, so the backward raises."""
        from hallucinet.engine import backward, tsum
        from hallucinet.train import AdamState, adam_step

        branch = build_branch(tiny_config, 3, "rgb", 0)
        out = branch.forward(rng.random((2, 3, 64, 64), dtype=np.float32), "train")
        params = branch.parameters()
        adam_step(params, [np.ones_like(p.data) for p in params], AdamState(lr=0.1))
        with pytest.raises(ValueError, match="conv2d output: its weight moved"):
            backward(tsum(out.logits))

    def test_default_step_releases_the_first_conv_output(self, rng):
        """One train step of a default branch on a default batch: after the
        forward, no first-unit conv output is held, and the backward holds
        at most the other units' conv outputs, the pooled outputs and four
        logits-sized arrays (the logits, the loss's product and their
        gradients), with 1/8 of the first conv output to spare."""
        import tracemalloc

        from hallucinet.engine import backward, mul, tsum
        from hallucinet.engine.tensor import topo_order

        cfg = BranchConfig(class_count=4)
        n, size = 4, 256
        branch = build_branch(cfg, 3, "rgb", 0)
        x = rng.random((n, 3, size, size), dtype=np.float32)
        upstream = rng.normal(size=(n, 4, size, size)).astype(np.float32)
        units = pools = 0
        side = size // cfg.first_conv_stride
        first = n * cfg.blocks[0][0] * side * side * 4
        for width, convs in cfg.blocks:
            units += convs * n * width * side * side * 4
            side //= 2
            pools += n * width * side * side * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = branch.forward(x, "train")
            loss = tsum(mul(out.logits, Tensor(upstream)))
            w0 = branch.blocks[0][0].weight
            convs0 = [t for t in topo_order(loss)
                      if t.op == "conv2d" and any(p is w0 for p in t.parents)]
            assert len(convs0) == 1 and convs0[0]._data is None
            del out, convs0
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = units - first + pools + 4 * upstream.nbytes + first // 8
        assert peak <= bound, (peak, bound)


class TestFuseLogits:
    def test_mean_idempotent(self, rng):
        z = t64(rng.normal(size=(1, 3, 2, 2)))
        fused = fuse_logits([z, Tensor(z.data.copy(), dtype=np.float64)])
        assert np.allclose(fused.data, z.data)

    def test_opposing_logits_balance(self):
        a = t64(np.array([2.0, 0.0]).reshape(1, 2, 1, 1))
        b = t64(np.array([0.0, 2.0]).reshape(1, 2, 1, 1))
        fused = fuse_logits([a, b])
        assert np.allclose(fused.data.ravel(), [1.0, 1.0])
        probs = channel_softmax(fused).data.ravel()
        assert np.allclose(probs, [0.5, 0.5])

    def test_single_identity(self, rng):
        z = t64(rng.normal(size=(1, 2, 2, 2)))
        assert np.allclose(fuse_logits([z]).data, z.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_logits([])

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            fuse_logits([t64(rng.normal(size=(1, 2, 2, 2))),
                         t64(rng.normal(size=(1, 3, 2, 2)))])


def _bundle(tiny_config, roles_channels, role_modalities, seed=0):
    branches = {}
    for i, (role, ch) in enumerate(roles_channels.items()):
        if role.startswith("hal_"):
            continue
        branches[role] = build_branch(tiny_config, ch, role, seed + i)
    for role, ch in roles_channels.items():
        if role.startswith("hal_"):
            target = branches[role[4:]]
            branches[role] = init_hallucination_from(target, ch, seed + 90)
    return ModelBundle(tiny_config, branches, role_modalities)


@pytest.fixture()
def potsdam_bundle(tiny_config):
    """rgb + depth + ir with both hallucination branches."""
    return _bundle(
        tiny_config,
        {"rgb": 3, "depth": 1, "ir": 1, "hal_depth": 3, "hal_ir": 3},
        {"rgb": "color", "depth": "height", "ir": "ir"})


class TestRouting:
    def test_depth_missing_ir_available(self, potsdam_bundle):
        roles = select_branches(potsdam_bundle, {"depth": False, "ir": True})
        assert set(roles) == {"rgb", "ir", "hal_depth"}

    def test_all_available(self, potsdam_bundle):
        assert set(select_branches(potsdam_bundle, {"depth": True, "ir": True})) == \
            {"rgb", "depth", "ir"}

    def test_all_missing(self, potsdam_bundle):
        roles = select_branches(potsdam_bundle, {"depth": False, "ir": False})
        assert set(roles) == {"rgb", "hal_ir", "hal_depth"}

    def test_totality_over_all_patterns(self, potsdam_bundle):
        for d, i in itertools.product([True, False], repeat=2):
            roles = select_branches(potsdam_bundle, {"depth": d, "ir": i})
            assert "rgb" in roles and len(roles) == 3

    def test_no_substitute_raises(self, tiny_config):
        bundle = _bundle(tiny_config, {"rgb": 3, "depth": 1},
                         {"rgb": "color", "depth": "height"})
        with pytest.raises(MissingModalityError):
            select_branches(bundle, {"depth": False})


class TestPredict:
    def test_single_branch_argmax(self, tiny_config, rng):
        bundle = _bundle(tiny_config, {"rgb": 3}, {"rgb": "color"})
        x = rng.random((1, 3, 64, 64), dtype=np.float32)
        pred = predict(bundle, {"color": x}, {})
        logits = bundle.branches["rgb"].forward(x).logits.data
        assert np.array_equal(pred, logits.argmax(axis=1))

    def test_copy_branch_matches_real(self, tiny_config, rng):
        # hal is an exact copy of depth; feed it depth's raster via a shim
        depth = build_branch(tiny_config, 1, "depth", 3)
        hal = init_hallucination_from(depth, 1, 5)
        rgb = build_branch(tiny_config, 1, "rgb", 4)
        height = rng.random((1, 1, 64, 64), dtype=np.float32)
        shim = {"rgb": "height", "depth": "height"}
        real = ModelBundle(tiny_config, {"rgb": rgb, "depth": depth}, shim)
        sub = ModelBundle(tiny_config, {"rgb": rgb, "depth": depth, "hal_depth": hal}, shim)
        p_real = predict(real, {"height": height}, {"depth": True})
        p_sub = predict(sub, {"height": height}, {"depth": False})
        assert np.array_equal(p_real, p_sub)

    def test_constant_shift_invariance(self, tiny_config, rng):
        bundle = _bundle(tiny_config, {"rgb": 3}, {"rgb": "color"})
        x = rng.random((1, 3, 64, 64), dtype=np.float32)
        probs = predict_probs(bundle, {"color": x}, {})
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_missing_input_raises(self, tiny_config, rng):
        bundle = _bundle(tiny_config, {"rgb": 3}, {"rgb": "color"})
        with pytest.raises(MissingModalityError):
            predict(bundle, {"height": rng.random((1, 1, 64, 64), dtype=np.float32)}, {})

    def test_argmax_allocates_no_copy_of_the_map(self, monkeypatch, rng):
        """The class map of a probability map with ties, from the map, the
        int64 output and one image's float32 running maximum and bool mask:
        no copy of the map, which numpy's argmax over the class axis makes."""
        import tracemalloc

        import hallucinet.model as model_mod

        probs = rng.random((2, 4, 64, 64), dtype=np.float32)
        probs[:, 3] = probs[:, 1]  # exact ties go to the lower class
        probs[0, :, :8] = 0.25  # a four-way tie goes to class 0
        monkeypatch.setattr(model_mod, "predict_probs",
                            lambda bundle, inputs, availability: probs.copy())
        want = probs.argmax(axis=1)
        tracemalloc.start()
        try:
            got = predict(None, {}, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == np.int64 and np.array_equal(got, want)
        plane = got[0].size  # the running maximum and the mask hold one image
        assert peak < probs.nbytes + got.nbytes + plane * 5 + (16 << 10)


def _trained_look(branch):
    """Give every running statistic of `branch` a value of its own, so that
    a copy cannot match by the defaults."""
    stats = [a for name, a in branch.tensors().items() if "/running_" in name]
    for i, arr in enumerate(stats):
        arr[:] = np.arange(arr.size) * 0.5 + i


class TestHallucinationInit:
    def test_equal_channels_bit_identical(self, tiny_config):
        depth = build_branch(tiny_config, 3, "depth", 3)
        _trained_look(depth)
        hal = init_hallucination_from(depth, 3, 5)
        assert hal.role == "hal_depth"
        src, dst = depth.tensors(), hal.tensors()
        assert list(dst) == [f"hal_{name}" for name in src]
        for name, arr in src.items():
            assert np.array_equal(arr, dst[f"hal_{name}"]) and arr.dtype == dst[f"hal_{name}"].dtype
        assert hal.store.tobytes() == depth.store.tobytes()

    def test_channel_mismatch_fresh_first_conv(self, tiny_config):
        depth = build_branch(tiny_config, 1, "depth", 3)
        _trained_look(depth)
        hal = init_hallucination_from(depth, 3, 5)
        fresh = build_branch(tiny_config, 3, "hal_depth", 5).tensors()
        src, dst = depth.tensors(), hal.tensors()
        assert list(dst) == [f"hal_{name}" for name in src]
        for name, arr in src.items():
            if name == "depth/block0/conv0/weight":
                assert dst[f"hal_{name}"].shape == (8, 3, 3, 3)  # RGB in, not DSM
                assert np.array_equal(dst[f"hal_{name}"], fresh[f"hal_{name}"])
            else:
                assert np.array_equal(arr, dst[f"hal_{name}"])
        # past their first conv weights, which lead them, the stores are equal
        first, depth_first = hal.blocks[0][0].weight.data.size, depth.blocks[0][0].weight.data.size
        assert hal.store[first:].tobytes() == depth.store[depth_first:].tobytes()

    def test_copy_is_independent(self, tiny_config):
        depth = build_branch(tiny_config, 3, "depth", 3)
        hal = init_hallucination_from(depth, 3, 5)
        hal.parameters()[4].data[:] = 99.0
        assert not np.array_equal(depth.parameters()[4].data, hal.parameters()[4].data)
        hal.blocks[0][0].state.running_mean[:] = 5.0
        assert not np.array_equal(depth.blocks[0][0].state.running_mean,
                                  hal.blocks[0][0].state.running_mean)

    @pytest.mark.parametrize("channels, draws", [(3, 0), (5, 1)], ids=["equal", "differ"])
    def test_draws_only_a_first_conv_of_other_channels(self, tiny_config, monkeypatch,
                                                       channels, draws):
        import hallucinet.model as model_mod

        depth = build_branch(tiny_config, 3, "depth", 3)
        drawn = []
        conv_init = model_mod._conv_init

        def spy(rng, weight):
            if rng is not None:
                drawn.append(weight.shape[:3])
            return conv_init(rng, weight)

        monkeypatch.setattr(model_mod, "_conv_init", spy)
        init_hallucination_from(depth, channels, 5)
        assert drawn == [(tiny_config.blocks[0][0], channels, 3)] * draws

    def test_tap_shapes_match_target(self, tiny_config, rng):
        depth = build_branch(tiny_config, 1, "depth", 3)
        hal = init_hallucination_from(depth, 3, 5)
        h = rng.random((2, 1, 64, 64), dtype=np.float32)
        c = rng.random((2, 3, 64, 64), dtype=np.float32)
        assert depth.forward(h).tap.shape == hal.forward(c).tap.shape


class TestEnsemble:
    def test_identical_models_match_single(self, tiny_config, rng):
        bundle = _bundle(tiny_config, {"rgb": 3}, {"rgb": "color"})
        x = {"color": rng.random((1, 3, 64, 64), dtype=np.float32)}
        single = predict(bundle, x, {})
        both = ensemble_predict(bundle, bundle, x, {})
        assert np.array_equal(single, both)

    def test_opposing_probs_tie_to_lowest_class(self, monkeypatch):
        import hallucinet.model as model_mod

        maps = {"a": np.array([0.875, 0.125], np.float32).reshape(1, 2, 1, 1),
                "b": np.array([0.125, 0.875], np.float32).reshape(1, 2, 1, 1)}
        monkeypatch.setattr(model_mod, "predict_probs",
                            lambda bundle, inputs, availability: maps[bundle].copy())
        assert ensemble_predict("a", "b", {}, {}).item() == 0  # first index wins ties

    def test_average_in_place_of_the_float32_maps(self, monkeypatch, rng):
        """The class map of `(pa + pb) * 0.5`, with no map allocated beyond
        the two: the second is dropped before the argmax, which adds the
        int64 class map and one image's float32 running maximum and bool mask."""
        import tracemalloc

        import hallucinet.model as model_mod

        maps = {name: rng.random((2, 4, 64, 64), dtype=np.float32) for name in "ab"}
        maps["b"][:, 1] = maps["a"][:, 2]  # near-ties that a rounding change would move
        monkeypatch.setattr(model_mod, "predict_probs",
                            lambda bundle, inputs, availability: maps[bundle].copy())
        want = ((maps["a"] + maps["b"]) * 0.5).argmax(axis=1)
        tracemalloc.start()
        try:
            got = ensemble_predict("a", "b", {}, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        argmax_pass = maps["a"].nbytes + got.nbytes + got[0].size * 5
        assert peak < max(2 * maps["a"].nbytes, argmax_pass) + (16 << 10)

    def test_averaged_probs_sum_to_one(self, tiny_config, rng):
        a = _bundle(tiny_config, {"rgb": 3}, {"rgb": "color"}, seed=0)
        b = _bundle(tiny_config, {"rgb": 3}, {"rgb": "color"}, seed=50)
        x = {"color": rng.random((1, 3, 64, 64), dtype=np.float32)}
        pa = predict_probs(a, x, {})
        pb = predict_probs(b, x, {})
        assert np.allclose(((pa + pb) / 2).sum(axis=1), 1.0, atol=1e-5)


class TestCheckpoint:
    def test_round_trip_predictions(self, tiny_config, tmp_path, rng):
        bundle = _bundle(tiny_config,
                         {"rgb": 3, "depth": 1, "hal_depth": 3},
                         {"rgb": "color", "depth": "height"})
        # perturb running stats so buffers round-trip too
        bundle.branches["rgb"].blocks[0][0].state.running_mean[:] = 0.25
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path, stage="stage4")
        loaded = load_checkpoint(path)
        assert loaded.stage == "stage4"
        assert loaded.role_modalities == bundle.role_modalities
        inputs = {"color": rng.random((1, 3, 64, 64), dtype=np.float32),
                  "height": rng.random((1, 1, 64, 64), dtype=np.float32)}
        for avail in ({"depth": True}, {"depth": False}):
            assert np.array_equal(predict(bundle, inputs, avail),
                                  predict(loaded, inputs, avail))

    def test_load_draws_no_weights(self, tiny_config, tmp_path, monkeypatch):
        import hallucinet.model as model_mod

        bundle = _bundle(tiny_config, {"rgb": 3, "depth": 1, "hal_depth": 3},
                         {"rgb": "color", "depth": "height"})
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path)
        generators = []
        conv_init = model_mod._conv_init

        def spy(rng, *shape):
            generators.append(rng)
            return conv_init(rng, *shape)

        monkeypatch.setattr(model_mod, "_conv_init", spy)
        loaded = load_checkpoint(path)
        assert generators and all(rng is None for rng in generators)
        for role, branch in bundle.branches.items():
            for name, arr in branch.tensors().items():
                assert np.array_equal(loaded.branches[role].tensors()[name], arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestBranchStore:
    """Every array of a branch's `tensors()` is a view of its one store."""

    @staticmethod
    def _default_bundle():
        config = BranchConfig(class_count=4)
        return _bundle(config, {"rgb": 3, "depth": 1, "hal_depth": 3},
                       {"rgb": "color", "depth": "height"})

    @pytest.mark.parametrize("blocks", ["tiny", "default"])
    def test_build(self, tiny_config, blocks):
        config = tiny_config if blocks == "tiny" else BranchConfig(class_count=4)
        assert_one_store(build_branch(config, 3, "rgb", 1))

    @pytest.mark.parametrize("channels", [3, 5], ids=["equal", "differ"])
    def test_hallucination_init(self, tiny_config, channels):
        assert_one_store(init_hallucination_from(build_branch(tiny_config, 3, "depth", 3),
                                                 channels, 5))

    def test_load_reads_into_the_store(self, tiny_config, tmp_path):
        bundle = _bundle(tiny_config, {"rgb": 3, "depth": 1, "hal_depth": 3},
                         {"rgb": "color", "depth": "height"})
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        for role, branch in loaded.branches.items():
            assert_one_store(branch)
            assert np.array_equal(branch.store, bundle.branches[role].store)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(self._default_bundle(), first, stage="stage4")
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_peak_memory_below_the_file_size_and_a_quarter(self, tmp_path):
        """The records are read straight into the stores: no copy of the
        file, nor a decoded copy of each tensor, is held beside them."""
        import tracemalloc

        path = tmp_path / "m.ckpt"
        save_checkpoint(self._default_bundle(), path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * path.stat().st_size


class TestPredictBuildsNoGraph:
    def test_no_grad_and_bit_identical(self, tiny_config, rng, monkeypatch):
        import hallucinet.model as model_mod

        bundle = _bundle(tiny_config, {"rgb": 3, "depth": 1, "hal_depth": 3},
                         {"rgb": "color", "depth": "height"})
        inputs = {"color": rng.random((1, 3, 64, 64), dtype=np.float32),
                  "height": rng.random((1, 1, 64, 64), dtype=np.float32)}
        # the same forward, building the graph
        logits = [bundle.branches[r].forward(inputs[bundle.input_modality(r)]).logits
                  for r in ("rgb", "hal_depth")]
        assert logits[0].requires_grad
        expected = channel_softmax(fuse_logits(logits)).data

        bundle.branches["rgb"].score_bias.requires_grad = False  # restored as it was
        outs = {}
        forward = model_mod.BranchNet.forward

        def forward_spy(branch, *args, **kwargs):
            out = forward(branch, *args, **kwargs)
            outs[branch.role] = out
            return out

        monkeypatch.setattr(model_mod.BranchNet, "forward", forward_spy)
        probs = predict_probs(bundle, inputs, {"depth": False})
        assert np.array_equal(probs, expected)
        assert sorted(outs) == ["hal_depth", "rgb"]
        for out in outs.values():
            assert not out.logits.requires_grad and out.logits.parents == ()
        flags = {p.name: p.requires_grad for p in bundle.parameters()}
        assert flags.pop("rgb/score/bias") is False
        assert all(flags.values())

    def test_flags_restored_when_predict_raises(self, tiny_config, rng):
        bundle = _bundle(tiny_config, {"rgb": 3, "depth": 1},
                         {"rgb": "color", "depth": "height"})
        with pytest.raises(MissingModalityError):
            # rgb runs, then the depth raster is missing
            predict_probs(bundle, {"color": rng.random((1, 3, 64, 64), dtype=np.float32)},
                          {"depth": True})
        assert all(p.requires_grad for p in bundle.parameters())


class TestCheckpointRobustness:
    @pytest.fixture()
    def saved(self, tiny_config, tmp_path):
        bundle = _bundle(tiny_config, {"rgb": 3, "depth": 1},
                         {"rgb": "color", "depth": "height"})
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path, stage="stage1")
        return path

    def test_atomic_write_leaves_no_temp_file(self, saved, monkeypatch):
        import os

        calls = []
        replace = os.replace

        def spy(src, dst):
            calls.append((Path(src), Path(dst)))
            assert Path(src).parent == Path(dst).parent and Path(src).exists()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        bundle = load_checkpoint(saved)
        save_checkpoint(bundle, saved)
        assert len(calls) == 1 and calls[0][1] == saved
        assert sorted(p.name for p in saved.parent.iterdir()) == ["m.ckpt"]

    def test_failed_write_keeps_old_file(self, saved, monkeypatch):
        import hallucinet.model as model_mod

        old = saved.read_bytes()
        bundle = load_checkpoint(saved)

        def broken(arr):
            raise OSError("disk full")

        monkeypatch.setattr(model_mod, "tensor_record", broken)
        with pytest.raises(OSError):
            save_checkpoint(bundle, saved)
        assert saved.read_bytes() == old
        assert sorted(p.name for p in saved.parent.iterdir()) == ["m.ckpt"]

    def test_unknown_format_version_rejected(self, saved):
        import json

        import hallucinet.model as model_mod

        header, tensors = read_records(saved)
        assert header["format_version"] == 3
        # true equals 1 in Python but is no version
        for version in (1, 2, True, 9):
            header["format_version"] = version
            model_mod._write_checkpoint(saved, header, tensors)
            with pytest.raises(CheckpointError, match=f"version {json.dumps(version)}$"):
                load_checkpoint(saved)

    @pytest.mark.parametrize("roles, missing", [({"rgb": "color"}, "depth"),
                                                ({"depth": "height"}, "rgb")])
    def test_role_without_modality_rejected(self, saved, roles, missing):
        # the checksum covers the tensor records, not the header's roles
        import hallucinet.model as model_mod

        header, tensors = read_records(saved)
        header["role_modalities"] = roles
        model_mod._write_checkpoint(saved, header, tensors)
        with pytest.raises(CheckpointError, match=f"names no modality of role {missing}$"):
            load_checkpoint(saved)

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("cut", [3, 6, 40, -1])
    def test_truncation_rejected(self, saved, cut):
        saved.write_bytes(saved.read_bytes()[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(saved)

    def test_flipped_payload_byte_rejected(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        saved.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("name", ["rgb/block0/bn0/running_mean", "depth/score/bias"])
    def test_tensor_of_another_shape_rejected(self, saved, name):
        import hallucinet.model as model_mod

        header, tensors = read_records(saved)
        tensors[name] = tensors[name][:1]
        model_mod._write_checkpoint(saved, header, tensors)
        with pytest.raises(CheckpointError, match=f"{name} has shape \\(1,\\)"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("name", ["depth/block1/bn0/running_var", "rgb/upsample/weight"])
    def test_missing_tensor_rejected(self, saved, name):
        import hallucinet.model as model_mod

        header, tensors = read_records(saved)
        header["tensors"].remove(name)
        model_mod._write_checkpoint(saved, header, tensors)
        with pytest.raises(CheckpointError, match=f"missing tensor {name}$"):
            load_checkpoint(saved)

    def test_unused_tensor_rejected(self, saved):
        import hallucinet.model as model_mod

        header, tensors = read_records(saved)
        tensors["rgb/block0/extra"] = np.zeros(3, dtype=np.float32)
        header["tensors"].append("rgb/block0/extra")
        model_mod._write_checkpoint(saved, header, tensors)
        with pytest.raises(CheckpointError, match="rgb/block0/extra"):
            load_checkpoint(saved)
