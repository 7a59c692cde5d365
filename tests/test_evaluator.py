"""Evaluator: erosion oracle, confusion, metrics, tiled inference, routing."""
import numpy as np
import pytest

import hallucinet.evaluate as evaluate_mod
from hallucinet.data import load_scene
from hallucinet.engine.functional import _BAND_BYTES
from hallucinet.evaluate import (
    ConfusionMatrix,
    EvalReport,
    accumulate,
    boundary_eroded_mask,
    evaluate,
    forward_bytes_per_pixel,
    load_report,
    metrics,
    plan_windows,
    save_report,
    tiled_inference,
)
from hallucinet.model import (
    BranchConfig,
    MissingModalityError,
    ModelBundle,
    build_branch,
    ensemble_predict,
    init_hallucination_from,
    predict,
    predict_probs,
)
from hallucinet.synthetic import SyntheticConfig, generate_synthetic


def brute_force_erosion(labels, radius=3, ignore=255):
    """Pairwise oracle: ignored iff a differently-labeled pixel is within
    Euclidean distance `radius`."""
    h, w = labels.shape
    mask = labels == ignore
    for r in range(h):
        for c in range(w):
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    rr, cc = r + dr, c + dc
                    if not (0 <= rr < h and 0 <= cc < w):
                        continue
                    if dr * dr + dc * dc > radius * radius:
                        continue
                    if labels[rr, cc] != labels[r, c]:
                        mask[r, c] = True
        if mask.all():
            break
    return mask


class TestErosion:
    def test_uniform_raster_keeps_everything(self):
        assert not boundary_eroded_mask(np.zeros((16, 16), dtype=np.uint8)).any()

    def test_column_split_against_oracle(self):
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[:, 4:] = 1
        mask = boundary_eroded_mask(labels)
        assert np.array_equal(mask, brute_force_erosion(labels))
        # columns 1..6 are within distance 3 of the boundary between 3 and 4
        assert mask[:, 1:7].all()
        assert not mask[:, 0].any() and not mask[:, 7].any()

    def test_matches_oracle_on_random_rasters(self, rng):
        for _ in range(10):
            labels = rng.integers(0, 3, size=(16, 16)).astype(np.uint8)
            assert np.array_equal(boundary_eroded_mask(labels),
                                  brute_force_erosion(labels))

    def test_relabeling_invariance(self, rng):
        labels = rng.integers(0, 4, size=(20, 20)).astype(np.uint8)
        perm = np.array([2, 0, 3, 1], dtype=np.uint8)
        assert np.array_equal(boundary_eroded_mask(labels),
                              boundary_eroded_mask(perm[labels]))

    def test_ignore_label_pixels_always_masked(self):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[0, 0] = 255
        assert boundary_eroded_mask(labels)[0, 0]


class TestConfusion:
    def test_perfect_prediction_diagonal(self, rng):
        labels = rng.integers(0, 3, size=(10, 10))
        conf = ConfusionMatrix.zeros(3)
        accumulate(conf, labels, labels, np.zeros_like(labels, dtype=bool))
        assert np.all(conf.counts == np.diag(np.diag(conf.counts)))
        assert conf.total() == 100

    def test_all_masked_unchanged(self, rng):
        labels = rng.integers(0, 3, size=(5, 5))
        conf = ConfusionMatrix.zeros(3)
        accumulate(conf, labels, labels, np.ones_like(labels, dtype=bool))
        assert conf.total() == 0

    def test_hand_built_seven_pixels(self):
        labels = np.array([[0, 0, 0, 0, 1, 1, 1]])
        preds = np.array([[0, 0, 0, 1, 1, 1, 0]])
        conf = ConfusionMatrix.zeros(2)
        accumulate(conf, preds, labels, np.zeros_like(labels, dtype=bool))
        assert np.array_equal(conf.counts, [[3, 1], [1, 2]])
        assert conf.total() == 7

    def test_out_of_range_prediction_rejected(self):
        conf = ConfusionMatrix.zeros(2)
        with pytest.raises(ValueError):
            accumulate(conf, np.array([[5]]), np.array([[0]]),
                       np.zeros((1, 1), dtype=bool))

    def test_order_independence(self, rng):
        labels = rng.integers(0, 3, size=(8, 8))
        preds = rng.integers(0, 3, size=(8, 8))
        mask = rng.random(size=(8, 8)) < 0.3
        whole = accumulate(ConfusionMatrix.zeros(3), preds, labels, mask)
        top = accumulate(ConfusionMatrix.zeros(3), preds[:4], labels[:4], mask[:4])
        bottom = accumulate(ConfusionMatrix.zeros(3), preds[4:], labels[4:], mask[4:])
        assert np.array_equal(whole.counts, (top + bottom).counts)


class TestMetrics:
    def test_f1_from_precision_recall(self):
        # tp=24, fn=16, fp=6: precision 0.8, recall 0.6
        conf = ConfusionMatrix(np.array([[24, 16], [6, 54]]))
        rep = metrics(conf)
        assert rep.precision[0] == pytest.approx(0.8)
        assert rep.recall[0] == pytest.approx(0.6)
        assert rep.f1[0] == pytest.approx(2 * 0.8 * 0.6 / 1.4, abs=1e-4)
        assert rep.f1[0] == pytest.approx(0.6857, abs=1e-4)

    def test_reference_matrix(self):
        conf = ConfusionMatrix(np.array([[3, 1], [1, 2]]))
        rep = metrics(conf)
        assert rep.overall_accuracy == pytest.approx(5 / 7, abs=1e-12)
        assert rep.mean_class_accuracy == pytest.approx((0.75 + 2 / 3) / 2, abs=1e-12)
        assert rep.iou == pytest.approx([0.6, 0.5], abs=1e-12)

    def test_perfect_diagonal_all_ones(self):
        rep = metrics(ConfusionMatrix(np.diag([5, 9, 2])))
        assert rep.overall_accuracy == 1.0
        assert rep.mean_class_accuracy == 1.0
        assert rep.average_f1 == 1.0
        assert all(v == 1.0 for v in rep.f1)

    def test_f1_iou_identity(self, rng):
        for _ in range(100):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 50, size=(c, c))
            counts[np.diag_indices(c)] += 1  # keep classes present
            rep = metrics(ConfusionMatrix(counts))
            for f1, iou in zip(rep.f1, rep.iou):
                assert f1 == pytest.approx(2 * iou / (1 + iou), abs=1e-9)

    def test_permutation_invariance_of_overall(self, rng):
        c = 4
        counts = rng.integers(0, 30, size=(c, c))
        perm = rng.permutation(c)
        permuted = counts[np.ix_(perm, perm)]
        assert metrics(ConfusionMatrix(counts)).overall_accuracy == pytest.approx(
            metrics(ConfusionMatrix(permuted)).overall_accuracy, abs=1e-12)

    def test_excluded_class_left_out_of_averages(self):
        counts = np.diag([10, 10, 10])
        counts[2, 0] = 10  # class 2 half wrong
        rep_all = metrics(ConfusionMatrix(counts))
        rep_excl = metrics(ConfusionMatrix(counts), excluded_classes=(2,))
        assert rep_excl.mean_class_accuracy == pytest.approx(1.0)
        assert rep_all.mean_class_accuracy < 1.0

    def test_absent_class_skipped(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 5
        counts[1, 1] = 5
        rep = metrics(ConfusionMatrix(counts))
        assert rep.mean_class_accuracy == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix.zeros(3))

    def test_report_json_round_trip(self, tmp_path, rng):
        counts = rng.integers(0, 30, size=(3, 3)) + np.eye(3, dtype=np.int64)
        rep = metrics(ConfusionMatrix(counts), mode="scenario=1")
        save_report(rep, tmp_path / "r.json")
        back = load_report(tmp_path / "r.json")
        assert back.to_json() == rep.to_json()

    def test_report_with_nan_scores_loads(self, tmp_path):
        # unlike a config, a report may hold NaN, which json writes as a bare token
        rep = metrics(ConfusionMatrix(np.eye(3, dtype=np.int64) + 1))
        rep.f1[1] = rep.average_f1 = float("nan")
        save_report(rep, tmp_path / "r.json")
        back = load_report(tmp_path / "r.json")
        assert np.isnan(back.f1[1]) and np.isnan(back.average_f1)
        assert back.f1[0] == rep.f1[0]


@pytest.fixture()
def single_bundle(tiny_config):
    branch = build_branch(tiny_config, 3, "rgb", 21)
    return ModelBundle(tiny_config, {"rgb": branch}, {"rgb": "color"})


def _force_side(monkeypatch, bundle, side):
    """Set the forward budget so that the derived window side is `side`."""
    per_px = forward_bytes_per_pixel(bundle.config, len(bundle.branches), 4)
    monkeypatch.setattr(evaluate_mod, "_FORWARD_BYTES", int(side * side * per_px))


class TestTiledInference:
    def test_scene_equals_tile_matches_direct(self, single_bundle, rng):
        from hallucinet.model import predict

        raster = rng.random((3, 64, 64), dtype=np.float32)
        tiled = tiled_inference(single_bundle, {"color": raster}, {})
        direct = predict(single_bundle, {"color": raster[None]}, {})[0]
        assert np.array_equal(tiled, direct)

    def test_constant_scene_constant_interior(self, single_bundle):
        raster = np.full((3, 128, 128), 0.4, dtype=np.float32)
        out = tiled_inference(single_bundle, {"color": raster}, {})
        interior = out[32:-32, 32:-32]
        assert (interior == interior.flat[0]).all()

    def test_tiling_invariance_in_interior(self, tiny_config, rng, monkeypatch):
        branch = build_branch(tiny_config, 3, "rgb", 33)
        bundle = ModelBundle(tiny_config, {"rgb": branch}, {"rgb": "color"})
        raster = rng.random((3, 192, 192), dtype=np.float32)
        a = tiled_inference(bundle, {"color": raster}, {})
        assert plan_windows(bundle, (192, 192)).count == 1
        # windows forced by a budget below the scene: equal everywhere
        _force_side(monkeypatch, bundle, 144)
        assert plan_windows(bundle, (192, 192)).count == 16
        assert np.array_equal(tiled_inference(bundle, {"color": raster}, {}), a)

    def test_small_scene_padded(self, single_bundle, rng):
        raster = rng.random((3, 48, 40), dtype=np.float32)
        out = tiled_inference(single_bundle, {"color": raster}, {})
        assert out.shape == (48, 40)

    def test_tile_follows_downsample_factor(self, rng, monkeypatch):
        from hallucinet.model import BranchConfig, predict

        cfg = BranchConfig(class_count=4, blocks=((6, 1),) * 4, first_conv_stride=1,
                           tap_depth=2)
        assert cfg.downsample_factor == 16
        bundle = ModelBundle(cfg, {"rgb": build_branch(cfg, 3, "rgb", 5)},
                             {"rgb": "color"})
        raster = rng.random((3, 200, 168), dtype=np.float32)
        whole = _padded_forward(lambda i, a: predict(bundle, i, a), {"color": raster}, {}, 16)
        _force_side(monkeypatch, bundle, 144)
        plan = plan_windows(bundle, (200, 168))
        assert plan.halo == 48 and plan.count == 6 and plan.window == (144, 144)
        assert all(origin % 16 == 0 for origin, _, _ in plan.rows + plan.cols)
        assert np.array_equal(tiled_inference(bundle, {"color": raster}, {}), whole)


def _calibrated(branch, channels: int, seed: int):
    """Give every batchnorm the statistics of one random batch.

    With the initial statistics the activations shrink layer by layer and
    one class wins at every pixel, which would hide a wrong window.
    """
    units = [u for block in branch.blocks for u in block]
    for u in units:
        u.state.momentum = 1.0
    x = np.random.default_rng(seed).random((1, channels, 64, 64), dtype=np.float32)
    branch.forward(x, "train")
    for u in units:
        u.state.momentum = 0.1
    return branch


@pytest.fixture()
def hal_bundle(tiny_config):
    """Scenario-1 roster: rgb and depth, and hal_depth fed by color."""
    depth = _calibrated(build_branch(tiny_config, 1, "depth", 2), 1, 2)
    return ModelBundle(tiny_config,
                       {"rgb": _calibrated(build_branch(tiny_config, 3, "rgb", 1), 3, 1),
                        "depth": depth,
                        "hal_depth": _calibrated(init_hallucination_from(depth, 3, 3), 3, 3)},
                       {"rgb": "color", "depth": "height"})


def _scene(rng, h, w):
    return {"color": rng.random((3, h, w), dtype=np.float32),
            "height": rng.random((1, h, w), dtype=np.float32)}


def _padded_forward(predictor, rasters, availability, factor):
    """One forward over the scene edge-padded to the factor, cropped back."""
    h, w = next(iter(rasters.values())).shape[-2:]
    pad = ((0, 0), (0, -h % factor), (0, -w % factor))
    inputs = {k: np.pad(v, pad, mode="edge")[None] for k, v in rasters.items()}
    return predictor(inputs, availability)[0, :h, :w]


def _prob_bits(bundle):
    """Predictor whose 'class map' is the bit pattern of the class-0 probability."""
    def predictor(inputs, availability):
        probs = predict_probs(bundle, inputs, availability)
        return probs[:, 0].view(np.int32)
    return predictor


SCENARIO_1 = {"depth": False}


class TestExactTiling:
    @pytest.fixture()
    def windowed(self, hal_bundle, monkeypatch):
        """A forward budget whose derived window side is 160."""
        _force_side(monkeypatch, hal_bundle, 160)
        return hal_bundle

    @pytest.mark.parametrize("hw", [(200, 168), (208, 176), (300, 257)])
    @pytest.mark.parametrize("side", [None, 144, 176])
    def test_windows_equal_one_padded_forward(self, windowed, rng, monkeypatch, hw, side):
        if side is not None:
            _force_side(monkeypatch, windowed, side)
        rasters = _scene(rng, *hw)
        plan = plan_windows(windowed, hw)
        assert plan.count > 1 and plan.halo == 64
        assert max(plan.window) == (side or 160)
        factor = windowed.config.downsample_factor
        bits = _prob_bits(windowed)
        tiled = tiled_inference(windowed, rasters, SCENARIO_1, predictor=bits)
        assert np.array_equal(tiled, _padded_forward(bits, rasters, SCENARIO_1, factor))
        classes = tiled_inference(windowed, rasters, SCENARIO_1)
        whole = _padded_forward(lambda i, a: predict(windowed, i, a), rasters, SCENARIO_1,
                                factor)
        assert np.array_equal(classes, whole)
        assert len(np.unique(whole)) > 1

    def test_ensemble_predictor_windows(self, windowed, tiny_config, rng):
        other = ModelBundle(tiny_config,
                            {"rgb": _calibrated(build_branch(tiny_config, 3, "rgb", 9), 3, 9)},
                            {"rgb": "color"})

        def ensemble(inputs, availability):
            return ensemble_predict(windowed, other, inputs, availability)

        rasters = _scene(rng, 200, 168)
        tiled = tiled_inference(windowed, rasters, SCENARIO_1, predictor=ensemble)
        whole = _padded_forward(ensemble, rasters, SCENARIO_1, 16)
        assert np.array_equal(tiled, whole)

    def test_scene_within_budget_is_one_window(self, hal_bundle):
        plan = plan_windows(hal_bundle, (200, 168))
        assert plan.count == 1
        assert plan.window == plan.extent == (208, 176)
        assert plan.halo == 64

    def test_halo_raised_to_exact_and_rounded_to_factor(self, windowed):
        # the receptive radius 50 rounded up to the factor 16
        assert windowed.config.receptive_radius == 50
        assert plan_windows(windowed, (300, 300)).halo == 64

    def test_tile_not_above_twice_halo_rejected_when_windows_needed(self, hal_bundle,
                                                                     monkeypatch):
        _force_side(monkeypatch, hal_bundle, 128)
        assert plan_windows(hal_bundle, (128, 128)).count == 1
        with pytest.raises(ValueError, match="window side 128 .* twice the halo 64"):
            plan_windows(hal_bundle, (300, 300))

    def test_pixels_taken_once_and_away_from_interior_edges(self, hal_bundle, monkeypatch):
        per_px = forward_bytes_per_pixel(hal_bundle.config, len(hal_bundle.branches), 4)
        extents = [(300, 257), (257, 300), (300, 300), (208, 176), (1000, 150), (150, 1000),
                   (1056, 1056), (2048, 1000)]
        for side in (144, 160, 176, 320):
            _force_side(monkeypatch, hal_bundle, side)
            for hw in extents:
                plan = plan_windows(hal_bundle, hw)
                assert plan.halo == 64
                assert plan.window[0] * plan.window[1] * per_px <= evaluate_mod._FORWARD_BYTES
                for entries, extent, length in zip((plan.rows, plan.cols), plan.extent,
                                                   plan.window):
                    assert extent % 16 == 0 and length % 16 == 0
                    assert [e[1] for e in entries[1:]] == [e[2] for e in entries[:-1]]
                    assert entries[0][1] == 0 and entries[-1][2] == extent
                    for origin, start, stop in entries:
                        assert origin % 16 == 0 and start < stop
                        assert origin <= start and stop <= origin + length <= extent
                        assert origin == 0 or start - origin >= plan.halo
                        assert origin + length == extent or origin + length - stop >= plan.halo

    @pytest.mark.parametrize("side, count, window, ratio", [(1056, 4, 672, 1.62),
                                                            (2048, 9, 864, 1.60)])
    def test_default_bundle_windows_shrink_to_cover(self, side, count, window, ratio):
        # three default branches: a derived side of 1024 and a halo of 128
        cfg = BranchConfig(class_count=4)
        depth = build_branch(cfg, 1, "depth", 2)
        bundle = ModelBundle(cfg, {"rgb": build_branch(cfg, 3, "rgb", 1), "depth": depth,
                                   "hal_depth": init_hallucination_from(depth, 3, 3)},
                             {"rgb": "color", "depth": "height"})
        plan = plan_windows(bundle, (side, side))
        assert (plan.count, plan.window, plan.halo) == (count, (window, window), 128)
        assert plan.count * window * window / side ** 2 == pytest.approx(ratio, abs=0.005)

    @pytest.mark.parametrize("order", [("color", "height"), ("height", "color")])
    def test_rasters_of_different_extents_rejected(self, hal_bundle, rng, order):
        shapes = {"color": (3, 64, 64), "height": (1, 128, 128)}
        rasters = {name: rng.random(shapes[name], dtype=np.float32) for name in order}
        with pytest.raises(ValueError, match="differ in extent") as err:
            tiled_inference(hal_bundle, rasters, {"depth": True})
        assert "color 64x64" in str(err.value) and "height 128x128" in str(err.value)

    @pytest.mark.parametrize("blocks, roster", [(None, 1), (None, 3), ("default", 1)])
    def test_estimate_bounds_predict_peak(self, tiny_config, hal_bundle, rng, blocks, roster):
        import tracemalloc

        if blocks == "default":
            cfg = BranchConfig(class_count=4)
            bundle = ModelBundle(cfg, {"rgb": build_branch(cfg, 3, "rgb", 1)},
                                 {"rgb": "color"})
        elif roster == 1:
            bundle = ModelBundle(tiny_config, {"rgb": hal_bundle.branches["rgb"]},
                                 {"rgb": "color"})
        else:
            bundle = hal_bundle
        for side in (128, 256):
            inputs = {k: v[None] for k, v in _scene(rng, side, side).items()}
            for availability in ({"depth": True}, SCENARIO_1):
                tracemalloc.start()
                try:
                    predict_probs(bundle, inputs, availability)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                per_px = forward_bytes_per_pixel(bundle.config, len(bundle.branches), 4)
                assert peak <= per_px * side * side + _BAND_BYTES, (side, peak)


class TestEvaluate:
    def test_confusion_equals_whole_scene_predict(self, hal_bundle, tiny_dataset):
        _, conf = evaluate(hal_bundle, tiny_dataset, "test", "1")
        expected = ConfusionMatrix.zeros(tiny_dataset.class_count)
        for rec in tiny_dataset.splits["test"]:
            rasters, labels = load_scene(tiny_dataset, rec.scene_id, ["color"])
            pred = predict(hal_bundle, {"color": rasters["color"][None]}, SCENARIO_1)[0]
            accumulate(expected, pred, labels, boundary_eroded_mask(labels))
        assert np.array_equal(conf.counts, expected.counts)
        assert np.count_nonzero(conf.counts) > 1

    def test_copy_hal_equals_all_available(self, tiny_config, tiny_dataset):
        # hal is a bit-exact copy of depth and, via the modality shim, reads
        # the same raster: scenario-1 routing must equal all-available
        depth = build_branch(tiny_config, 1, "depth", 3)
        hal = init_hallucination_from(depth, 1, 5)
        rgb = build_branch(tiny_config, 1, "rgb", 4)
        shim = {"rgb": "height", "depth": "height"}
        bundle = ModelBundle(tiny_config, {"rgb": rgb, "depth": depth,
                                           "hal_depth": hal}, shim)
        rep_all, conf_all = evaluate(bundle, tiny_dataset, "test", "all")
        rep_s1, conf_s1 = evaluate(bundle, tiny_dataset, "test", "1")
        assert np.array_equal(conf_all.counts, conf_s1.counts)
        assert rep_all.overall_accuracy == rep_s1.overall_accuracy

    def test_scenario_flags_drive_routing(self, tiny_config, tiny_dataset):
        seen = []

        def spy(inputs, availability):
            seen.append(dict(availability))
            some = next(iter(inputs.values()))
            return np.zeros((some.shape[0], *some.shape[2:]), dtype=np.int64)

        depth = build_branch(tiny_config, 1, "depth", 3)
        hal = init_hallucination_from(depth, 3, 5)
        rgb = build_branch(tiny_config, 3, "rgb", 4)
        bundle = ModelBundle(tiny_config, {"rgb": rgb, "depth": depth,
                                           "hal_depth": hal},
                             {"rgb": "color", "depth": "height"})
        evaluate(bundle, tiny_dataset, "test", "1", predictor=spy)
        assert all(not a["depth"] for a in seen)
        seen.clear()
        evaluate(bundle, tiny_dataset, "test", "all", predictor=spy)
        assert all(a["depth"] for a in seen)

    def test_scenario_2_reads_only_routed_rasters(self, hal_bundle, tiny_config, tmp_path):
        """A scene flagged without height is routed to hal_depth and needs
        no height raster; without hal_depth it is a missing modality."""
        cfg = SyntheticConfig(scene_count=4, size=96, class_count=4, train_scenes=2,
                              val_scenes=1, availability={"height": 0.0})
        dataset = generate_synthetic(3, cfg, tmp_path)
        (tmp_path / "scenes" / "scene_003" / "height.mtns").unlink()
        _, conf2 = evaluate(hal_bundle, dataset, "test", "2")
        _, conf1 = evaluate(hal_bundle, dataset, "test", "1")
        assert np.array_equal(conf2.counts, conf1.counts)
        without_hal = ModelBundle(tiny_config, {r: hal_bundle.branches[r]
                                                for r in ("rgb", "depth")},
                                  hal_bundle.role_modalities)
        with pytest.raises(MissingModalityError, match="no hallucination branch"):
            evaluate(without_hal, dataset, "test", "2")

    def test_report_regeneration_from_confusion(self, tiny_config, tiny_dataset):
        rgb = build_branch(tiny_config, 3, "rgb", 4)
        bundle = ModelBundle(tiny_config, {"rgb": rgb}, {"rgb": "color"})
        report, conf = evaluate(bundle, tiny_dataset, "test", "all")
        regenerated = metrics(conf, excluded_classes=tiny_dataset.excluded_classes,
                              mode=report.mode, class_names=tiny_dataset.class_names)
        assert regenerated.to_json() == report.to_json()

    def test_window_keywords_ignored(self, hal_bundle, tiny_dataset):
        # the benchmark's eval workload still passes tile and halo
        _, plain = evaluate(hal_bundle, tiny_dataset, "test", "1")
        _, ignored = evaluate(hal_bundle, tiny_dataset, "test", "1", tile=64, halo=16)
        assert np.array_equal(plain.counts, ignored.counts)

    def test_empty_split_rejected(self, tiny_config, tiny_dataset):
        rgb = build_branch(tiny_config, 3, "rgb", 4)
        bundle = ModelBundle(tiny_config, {"rgb": rgb}, {"rgb": "color"})
        with pytest.raises(ValueError):
            evaluate(bundle, tiny_dataset, "nope", "all")
