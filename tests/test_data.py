"""Data pipeline: tensor files, patch grids, augmentation, statistics,
and the synthetic generator's guarantees."""
import itertools
import json
import re
import shutil

import numpy as np
import pytest
import reference_synthetic

from hallucinet.data import (
    MissingModalityError,
    PatchSampler,
    PatchSpec,
    TensorFileError,
    atomic_write,
    augment,
    axis_origins,
    extract_patch_grid,
    load_manifest,
    load_scene,
    read_rasters,
    read_rows,
    read_tensor_file,
    write_tensor_file,
)
from hallucinet.synthetic import SyntheticConfig, generate_scene, generate_synthetic


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        for _ in range(20):
            rank = rng.integers(1, 5)
            shape = tuple(int(s) for s in rng.integers(1, 6, size=rank))
            if rng.random() < 0.5:
                arr = rng.normal(size=shape).astype(np.float32)
            else:
                arr = rng.integers(0, 256, size=shape).astype(np.uint8)
            path = tmp_path / "t.mtns"
            write_tensor_file(path, arr)
            back = read_tensor_file(path)
            assert back.dtype == arr.dtype
            assert np.array_equal(back, arr)

    def test_payload_length(self, tmp_path):
        arr = np.ones((2, 3), dtype=np.float32)
        path = tmp_path / "t.mtns"
        write_tensor_file(path, arr)
        blob = path.read_bytes()
        # magic+version+dtype+rank = 7, extents 2*4, payload 6*4 = 24
        assert len(blob) == 7 + 8 + 24

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.mtns"
        write_tensor_file(path, np.ones(3, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError):
            read_tensor_file(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.mtns"
        write_tensor_file(path, np.ones((4, 4), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TensorFileError):
            read_tensor_file(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "t.mtns"
        write_tensor_file(path, np.ones(2, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError):
            read_tensor_file(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(TensorFileError):
            write_tensor_file(tmp_path / "t.mtns", np.ones(3, dtype=np.int32))

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:9], "truncated extents"),
        (lambda blob: blob[:20], "truncated payload"),
        (lambda blob: blob + b"x", "trailing bytes after payload"),
        (lambda blob: b"XXXX" + blob[4:], "bad magic bytes"),
        (lambda blob: blob[:6], "truncated header"),
        (lambda blob: blob[:4] + bytes([9]) + blob[5:], "unsupported format version 9"),
        (lambda blob: blob[:5] + bytes([7]) + blob[6:], "unsupported dtype code 7"),
    ], ids=["extents", "payload", "trailing", "magic", "header", "version", "dtype"])
    def test_errors_name_the_file(self, tmp_path, damage, message):
        path = tmp_path / "t.mtns"
        write_tensor_file(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(TensorFileError, match=f"^{re.escape(str(path))}: {message}$"):
            read_tensor_file(path)

    @pytest.mark.parametrize("shape, window", [
        ((4, 64, 1024), (0, 16, 0, 64)),
        ((4, 64, 1024), (40, 64, 960, 1024)),
        ((4, 64, 1024), (7, 39, 300, 364)),
        ((4, 64, 1024), (5, 21, 0, 1024)),
        ((64, 96), (3, 35, 17, 49)),
    ], ids=["left", "right", "inside", "whole-rows", "labels"])
    def test_read_rows_window_equals_the_crop(self, tmp_path, rng, shape, window):
        arr = rng.normal(size=shape).astype(np.float32) if len(shape) == 3 \
            else rng.integers(0, 256, size=shape).astype(np.uint8)
        path = tmp_path / "t.mtns"
        write_tensor_file(path, arr)
        r0, r1, c0, c1 = window
        got = read_rows(path, shape, *window)
        expected = read_tensor_file(path)[..., r0:r1, c0:c1]
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_read_rows_holds_only_the_window(self, tmp_path, rng):
        import tracemalloc

        arr = rng.normal(size=(4, 64, 1024)).astype(np.float32)
        path = tmp_path / "t.mtns"
        write_tensor_file(path, arr)
        tracemalloc.start()
        try:
            window = read_rows(path, arr.shape, 16, 48, 512, 544)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert window.shape == (4, 32, 32)
        assert peak <= window.nbytes + 16 * 1024, peak


class TestAxisOrigins:
    def test_every_step_then_flush_with_the_border(self):
        for extent in range(1, 41):
            for length in range(1, extent + 1):
                for step in range(1, length + 1):
                    origins = axis_origins(extent, length, step)
                    gaps = [b - a for a, b in zip(origins, origins[1:])]
                    assert (origins[0], origins[-1]) == (0, extent - length)
                    assert all(g == step for g in gaps[:-1])
                    assert all(0 < g <= step for g in gaps[-1:])


class TestPatchGrid:
    def test_half_overlap_512(self):
        spec = PatchSpec(size=256, overlap=0.5)
        origins = extract_patch_grid(512, 512, spec)
        assert sorted(set(r for r, _ in origins)) == [0, 128, 256]
        assert len(origins) == 9

    def test_exact_fit_single_patch(self):
        assert extract_patch_grid(256, 256, PatchSpec()) == [(0, 0)]

    def test_border_clamp(self):
        origins = extract_patch_grid(300, 256, PatchSpec())
        assert origins == [(0, 0), (44, 0)]

    def test_full_coverage(self, rng):
        spec = PatchSpec(size=64, overlap=0.25)
        for _ in range(10):
            h = int(rng.integers(64, 200))
            w = int(rng.integers(64, 200))
            covered = np.zeros((h, w), dtype=bool)
            for r, c in extract_patch_grid(h, w, spec):
                covered[r:r + 64, c:c + 64] = True
            assert covered.all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PatchSpec(overlap=1.0)
        for size in (0, -64):
            with pytest.raises(ValueError, match="train.patch.size must be at least 1"):
                PatchSpec(size=size)


class TestAugment:
    def test_identity(self, rng):
        arr = rng.normal(size=(3, 8, 8))
        out, = augment([arr], 0)
        assert np.array_equal(out, arr)

    def test_four_rotations_identity(self, rng):
        arr = rng.normal(size=(8, 8))
        out = arr
        for _ in range(4):
            out, = augment([out], 1)
        assert np.allclose(out, arr)

    def test_rotation_index_mapping(self):
        # (r, c) lands on (c, H-1-r) under one 90-degree rotation
        grid = np.arange(9.0).reshape(3, 3)
        rot, = augment([grid], 1)
        for r in range(3):
            for c in range(3):
                assert rot[c, 3 - 1 - r] == grid[r, c]

    def test_non_square_rotation_rejected(self, rng):
        with pytest.raises(ValueError):
            augment([rng.normal(size=(4, 6))], 1)
        out, = augment([rng.normal(size=(4, 6))], 0)  # id 0 fine

    def test_class_frequencies_preserved(self, rng):
        labels = rng.integers(0, 4, size=(8, 8))
        for tid in range(8):
            out, = augment([labels], tid)
            assert np.array_equal(np.bincount(out.ravel(), minlength=4),
                                  np.bincount(labels.ravel(), minlength=4))

    def test_modality_label_correspondence(self):
        # embed coordinates as values; all stacked arrays must move together
        h = w = 6
        coords = np.arange(h * w, dtype=np.float32).reshape(h, w)
        modality = np.stack([coords, coords * 2.0])
        label = coords.copy()
        for tid in range(8):
            m_out, l_out = augment([modality, label], tid)
            assert np.array_equal(m_out[0], l_out)
            assert np.array_equal(m_out[1], l_out * 2.0)

    def test_all_eight_distinct(self, rng):
        arr = rng.normal(size=(4, 4))
        outs = [augment([arr], tid)[0].tobytes() for tid in range(8)]
        assert len(set(outs)) == 8


def sampler_frequencies(manifest, split):
    """The class frequencies of a split, as the sampler over its color rasters holds them."""
    return PatchSampler(manifest, split, PatchSpec(size=8), 1, ["color"]).frequencies


def _write_dataset(tmp_path, labels_by_scene):
    scenes_dir = tmp_path / "scenes"
    records = []
    for i, labels in enumerate(labels_by_scene):
        sid = f"s{i}"
        d = scenes_dir / sid
        d.mkdir(parents=True)
        color = np.zeros((3, *labels.shape), dtype=np.float32)
        write_tensor_file(d / "color.mtns", color)
        write_tensor_file(d / "labels.mtns", labels.astype(np.uint8))
        records.append({"id": sid, "availability": {}})
    doc = {"class_count": 3, "class_names": ["a", "b", "c"],
           "modalities": [{"name": "color", "channels": 3}],
           "splits": {"train": records}}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    return load_manifest(tmp_path / "manifest.json")


class TestClassFrequencies:
    def test_half_and_half(self, tmp_path):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[5:] = 1
        manifest = _write_dataset(tmp_path, [labels])
        f = sampler_frequencies(manifest, "train")
        assert np.allclose(f, [0.5, 0.5, 0.0])

    def test_ignore_excluded_and_normalized(self, tmp_path):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[:5, :5] = 255
        labels[5:] = 1
        manifest = _write_dataset(tmp_path, [labels])
        f = sampler_frequencies(manifest, "train")
        assert f.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(f, [25 / 75, 50 / 75, 0.0])

    def test_small_block(self, tmp_path):
        labels = np.zeros((100, 100), dtype=np.uint8)
        labels[10:20, 10:20] = 2
        manifest = _write_dataset(tmp_path, [labels])
        f = sampler_frequencies(manifest, "train")
        assert f[2] == pytest.approx(0.01, abs=1e-12)

    def test_empty_split_rejected(self, tmp_path):
        manifest = _write_dataset(tmp_path, [np.zeros((8, 8), dtype=np.uint8)])
        with pytest.raises(ValueError):
            sampler_frequencies(manifest, "val")

    def test_only_ignored_pixels_rejected(self, tmp_path):
        manifest = _write_dataset(tmp_path, [np.full((8, 8), 255, dtype=np.uint8)])
        with pytest.raises(ValueError, match="split 'train' contains only ignored pixels"):
            sampler_frequencies(manifest, "train")

    @pytest.mark.parametrize("reader", [sampler_frequencies, lambda m, _: load_scene(m, "s1")])
    def test_label_outside_classes_rejected(self, tmp_path, reader):
        # 3 is no class id of the 3 classes and not the ignore label 255
        stray = np.zeros((8, 8), dtype=np.uint8)
        stray[2, 3] = 3
        manifest = _write_dataset(tmp_path, [np.zeros((8, 8), dtype=np.uint8), stray])
        with pytest.raises(ValueError, match="scene s1: label 3 "):
            reader(manifest, "train")


class TestLoadScene:
    @pytest.mark.parametrize("color_hw, labels_hw", [((8, 8), (10, 10)), ((10, 12), (10, 10))])
    def test_raster_extent_must_match_labels(self, tmp_path, color_hw, labels_hw):
        d = tmp_path / "scenes" / "s0"
        d.mkdir(parents=True)
        write_tensor_file(d / "color.mtns", np.zeros((3, *color_hw), dtype=np.float32))
        write_tensor_file(d / "labels.mtns", np.zeros(labels_hw, dtype=np.uint8))
        doc = {"class_count": 2, "class_names": ["a", "b"],
               "modalities": [{"name": "color", "channels": 3}],
               "splits": {"test": [{"id": "s0", "availability": {}}]}}
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        manifest = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(ValueError, match="raster color is .* labels are 10x10"):
            load_scene(manifest, "s0")

    def test_reader_names_the_file(self, tmp_path):
        write_tensor_file(tmp_path / "color.mtns", np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match=r"color.mtns must be \(C,H,W\), got shape \(8, 8\)"):
            read_rasters(tmp_path, ["color"])
        with pytest.raises(MissingModalityError, match="height.mtns"):
            read_rasters(tmp_path, ["height"])


class TestManifest:
    DOC = {"class_count": 2, "class_names": ["a", "b"],
           "modalities": [{"name": "color", "channels": 3}],
           "splits": {"test": [{"id": "s0", "availability": {"height": True}}]}}

    @pytest.mark.parametrize("damage, field", [
        (lambda d: d["modalities"][0].update(channels=None), "modalities[0].channels"),
        (lambda d: d["modalities"][0].pop("channels"), "modalities[0].channels"),
        (lambda d: d.update(class_count="2"), "class_count"),
        (lambda d: d.pop("splits"), "splits"),
        (lambda d: d["splits"]["test"][0].update(availability={"height": 1}),
         "splits.test[0].availability.height"),
        (lambda d: d.update(class_names="ab"), "class_names"),
        (lambda d: d.update(class_names=["a"]), "class_names has length 1, class_count is 2"),
        (lambda d: d.update(class_names=["a", "b", "c"]), "class_names has length 3"),
        (lambda d: d.update(modalities=[{"name": "color", "channels": 3, "bands": 3}]),
         "modalities[0].bands"),
        (lambda d: d["modalities"][0].update(channels=0),
         "modalities[0].channels must be at least 1, got 0"),
        (lambda d: d["modalities"][0].update(channels=-2),
         "modalities[0].channels must be at least 1, got -2"),
        (lambda d: d["modalities"].append({"name": "color", "channels": 1}),
         "modalities[1].name 'color' repeats"),
        (lambda d: d.clear(), "line 1 column 1"),  # not JSON
        *[(lambda d, i=i: d["splits"]["test"][0].update(id=i),
           f"splits.test[0].id {i!r} is not one plain directory name")
          for i in ["", ".", "..", "../outside", "a/b", "a\\b"]],
    ])
    def test_malformed_document_names_file_and_field(self, tmp_path, damage, field):
        doc = json.loads(json.dumps(self.DOC))
        damage(doc)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc) if doc else "")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(path) in str(err.value) and field in str(err.value)


    @pytest.mark.parametrize("availability, loads", [
        ({"height": False}, True), ({"height": True}, False), ({}, False)])
    def test_raster_required_unless_flagged_absent(self, tmp_path, availability, loads):
        d = tmp_path / "scenes" / "s0"
        d.mkdir(parents=True)
        write_tensor_file(d / "color.mtns", np.zeros((3, 8, 8), dtype=np.float32))
        write_tensor_file(d / "labels.mtns", np.zeros((8, 8), dtype=np.uint8))
        doc = json.loads(json.dumps(self.DOC))
        doc["modalities"].append({"name": "height", "channels": 1})
        doc["splits"]["test"][0]["availability"] = availability
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        if loads:
            assert load_manifest(path).splits["test"][0].availability == availability
        else:
            with pytest.raises(MissingModalityError, match="missing raster .*height.mtns"):
                load_manifest(path)


class TestAtomicWrite:
    def test_failure_mid_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_failed_log_write_keeps_previous_file(self, tmp_path):
        # the third record cannot be serialized: two lines are already written
        from hallucinet.train import _write_log

        _write_log(tmp_path, [{"step": 0}])
        previous = (tmp_path / "train_log.jsonl").read_bytes()
        with pytest.raises(TypeError):
            _write_log(tmp_path, [{"step": 0}, {"step": 1}, {"step": object()}])
        assert (tmp_path / "train_log.jsonl").read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["train_log.jsonl"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_artifacts_refuse_non_json_numbers(self, tmp_path, value):
        # json.dumps would write the bare tokens NaN and Infinity
        from hallucinet.data import write_json
        from hallucinet.model import _write_checkpoint
        from hallucinet.train import _write_log

        with pytest.raises(ValueError):
            _write_log(tmp_path, [{"step": 0, "grad_max_pre": value}])
        with pytest.raises(ValueError):
            write_json(tmp_path / "doc.json", {"x": [1.0, value]})
        with pytest.raises(ValueError):
            _write_checkpoint(tmp_path / "c.ckpt", {"x": value, "tensors": []}, {})
        assert list(tmp_path.iterdir()) == []


class TestSynthetic:
    def test_same_seed_bit_identical(self, tmp_path):
        cfg = SyntheticConfig(scene_count=4, size=96, train_scenes=2, val_scenes=1)
        m1 = generate_synthetic(3, cfg, tmp_path / "a")
        m2 = generate_synthetic(3, cfg, tmp_path / "b")
        for rec in m1.splits["train"]:
            for mod in ("color", "height"):
                a = read_tensor_file(tmp_path / "a" / "scenes" / rec.scene_id / f"{mod}.mtns")
                b = read_tensor_file(tmp_path / "b" / "scenes" / rec.scene_id / f"{mod}.mtns")
                assert np.array_equal(a, b)

    def test_rare_fraction_on_target(self, tiny_dataset):
        freqs = PatchSampler(tiny_dataset, "train", PatchSpec(size=64), 4, ["color"]).frequencies
        assert abs(freqs[3] - 0.015) < 0.005

    def test_pair_marginals_match_in_color(self, tiny_dataset):
        from scipy.stats import ks_2samp

        stats = []
        for rec in tiny_dataset.splits["train"][:3]:
            rasters, labels = load_scene(tiny_dataset, rec.scene_id)
            color = rasters["color"]
            road = color[:, labels == 1].ravel()
            building = color[:, labels == 2].ravel()
            stats.append(ks_2samp(road, building).statistic)
        assert float(np.median(stats)) < 0.05

    def test_pair_disjoint_in_height(self, tiny_dataset):
        for rec in tiny_dataset.splits["train"]:
            rasters, labels = load_scene(tiny_dataset, rec.scene_id)
            height = rasters["height"][0]
            assert height[labels == 1].max() < height[labels == 2].min()

    def test_rasters_normalized(self, tiny_dataset):
        rec = tiny_dataset.splits["train"][0]
        rasters, labels = load_scene(tiny_dataset, rec.scene_id)
        for arr in rasters.values():
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_infeasible_rare_fraction(self, tmp_path):
        with pytest.raises(ValueError, match="rare_fraction must be 0 or in"):
            SyntheticConfig(scene_count=4, size=96, rare_fraction=0.0001,
                            train_scenes=2, val_scenes=1)

    def test_availability_schedule(self, tmp_path):
        cfg = SyntheticConfig(scene_count=8, size=96, train_scenes=3, val_scenes=1,
                              availability={"height": 0.5})
        manifest = generate_synthetic(2, cfg, tmp_path / "s")
        flags = [rec.availability["height"] for rec in manifest.splits["test"]]
        assert sum(flags) == 2 and len(flags) == 4

    @pytest.mark.parametrize("availability, include_ir, match", [
        ({"height": -0.5}, False, "in \\[0, 1\\]"),
        ({"height": 1.5}, False, "in \\[0, 1\\]"),
        ({"ir": 2.0}, True, "in \\[0, 1\\]"),
        ({"height": "0.5"}, False, "a number in \\[0, 1\\], got '0.5'"),
        ({"depth": 0.0}, False, "'depth', not an optional modality"),
        ({"color": 0.5}, True, "'color', not an optional modality"),
        ({"ir": 0.5}, False, "'ir', not an optional modality of this config \\(height\\)"),
    ], ids=["negative", "above-one", "ir-above-one", "string", "unknown", "required", "ir-not-generated"])
    def test_bad_availability_rejected(self, availability, include_ir, match):
        with pytest.raises(ValueError, match=match):
            SyntheticConfig(include_ir=include_ir, availability=availability)


class TestSyntheticRenderer:
    """The per-channel renderers against the masked-assignment ones of
    `reference_synthetic`, byte for byte, over a grid of configs."""

    @pytest.mark.parametrize("class_count", [4, 5, 6])
    @pytest.mark.parametrize("include_ir", [False, True])
    def test_scene_bytes_equal_to_reference(self, class_count, include_ir):
        for texture, crossover, rare, size, seed in itertools.product(
                (0.0, 0.5, 1.0), (0.0, 0.2), (0.0, None, 0.15), (64, 96, 128), (0, 1, 2)):
            if rare is None and size == 64:
                continue  # the default rare fraction is less than one disc of 64x64
            extra = {} if rare is None else {"rare_fraction": rare}
            cfg = SyntheticConfig(scene_count=5, size=size, class_count=class_count,
                                  include_ir=include_ir, texture_fraction=texture,
                                  pair_crossover=crossover, **extra)
            rasters, labels = generate_scene(cfg, np.random.default_rng([seed, 101, 0]))
            want_rasters, want_labels = reference_synthetic.generate_scene(
                cfg, np.random.default_rng([seed, 101, 0]))
            assert list(rasters) == list(want_rasters)
            for got, want in zip([labels, *rasters.values()], [want_labels, *want_rasters.values()]):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), cfg


def _nan_at_origins(path, manifest, spec):
    raster = read_tensor_file(path).copy()
    for r, c in extract_patch_grid(*raster.shape[1:], spec):
        raster[0, r, c] = np.nan  # inside every window of the scene
    write_tensor_file(path, raster)


def _truncate(path, manifest, spec):
    path.write_bytes(path.read_bytes()[:-4])


def _stray_label(path, manifest, spec):
    write_tensor_file(path, np.full_like(read_tensor_file(path), manifest.class_count))


class TestPatchSampler:
    MODALITIES = ["color", "height"]

    def test_too_small_rejected(self, tmp_path):
        manifest = _write_dataset(tmp_path, [np.zeros((128, 512), dtype=np.uint8)])
        with pytest.raises(ValueError):
            PatchSampler(manifest, "train", PatchSpec(size=256), 4, ["color"])

    def test_deterministic_batches(self, tiny_dataset):
        spec = PatchSpec(size=64, overlap=0.5)
        s1 = PatchSampler(tiny_dataset, "train", spec, 4, modalities=self.MODALITIES)
        s2 = PatchSampler(tiny_dataset, "train", spec, 4, modalities=self.MODALITIES)
        steps = -(-len(s1.index) // 4)  # one epoch
        for (b1, l1), (b2, l2) in zip(s1.batches(steps, 9), s2.batches(steps, 9), strict=True):
            assert np.array_equal(l1, l2)
            for k in b1:
                assert np.array_equal(b1[k], b2[k])

    def test_batch_is_the_stack_of_augmented_patches(self, tiny_dataset):
        """The batch equals the stack of the augmented windows of whole
        scenes as `load_scene` reads them; the labels keep their uint8."""
        spec = PatchSpec(size=64, overlap=0.5)
        s = PatchSampler(tiny_dataset, "train", spec, 4, modalities=self.MODALITIES)
        rng = np.random.default_rng([9, 0])
        order = rng.permutation(len(s.index))
        tchoice = rng.integers(0, len(spec.transform_ids()), size=len(s.index))
        batch, labels = next(s.batches(1, 9))
        patches = []
        for k in order[:4]:
            scene_idx, r, c = s.index[k]
            rasters, scene_labels = load_scene(tiny_dataset, s.scenes[scene_idx].scene_id,
                                               self.MODALITIES)
            arrays = [rasters[name][:, r:r + 64, c:c + 64] for name in self.MODALITIES]
            patches.append(augment([*arrays, scene_labels[r:r + 64, c:c + 64]],
                                   spec.transform_ids()[tchoice[k]]))
        for i, name in enumerate(self.MODALITIES):
            want = np.stack([p[i] for p in patches])
            assert batch[name].dtype == want.dtype and batch[name].tobytes() == want.tobytes()
        want = np.stack([p[-1] for p in patches])
        assert want.dtype == np.uint8
        assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scenes", [2, 8])
    def test_holds_no_scene(self, tmp_path, scenes):
        """Building a sampler over `scenes` scenes and drawing a batch leaves
        less than one scene's bytes traced beyond the batch, and the peak
        does not grow with the split."""
        import tracemalloc

        labels = np.zeros((128, 128), dtype=np.uint8)
        labels[64:] = 1
        manifest = _write_dataset(tmp_path, [labels] * scenes)
        scene = 3 * labels.nbytes * 4 + labels.nbytes  # float32 color and uint8 labels
        tracemalloc.start()
        try:
            s = PatchSampler(manifest, "train", PatchSpec(size=64), 4, ["color"])
            batch, batch_labels = next(s.batches(1, 9))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = batch["color"].nbytes + batch_labels.nbytes
        assert held < size + scene, (held, size, scene)
        assert peak < size + 2 * scene, (peak, size, scene)

    @pytest.mark.parametrize("scenes", [2, 8])
    def test_construction_holds_one_scene_at_a_time(self, tmp_path, scenes):
        """Construction reads each scene whole, one after the other: the
        previous scene's rasters are gone before the next one is read."""
        import tracemalloc

        labels = np.zeros((128, 128), dtype=np.uint8)
        labels[64:] = 1
        manifest = _write_dataset(tmp_path, [labels] * scenes)
        scene = 3 * labels.nbytes * 4 + labels.nbytes  # float32 color and uint8 labels
        tracemalloc.start()
        try:
            PatchSampler(manifest, "train", PatchSpec(size=64), 4, ["color"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * scene, (peak, scene)

    def test_generator_holds_no_copy_of_a_yielded_batch(self, tiny_dataset):
        import tracemalloc

        spec = PatchSpec(size=64, overlap=0.5)
        s = PatchSampler(tiny_dataset, "train", spec, 4, modalities=self.MODALITIES)
        stream = s.batches(2, 9)
        tracemalloc.start()
        try:
            batch, labels = next(stream)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in batch.values()) + labels.nbytes
        assert held < size + (16 << 10), (held, size)

    def test_threads_draw_the_streams_drawn_in_order(self, tiny_dataset):
        """Streams drawn at once from more threads than cores, as stage 1's
        branches draw theirs, are byte-equal to the same streams drawn one
        after the other."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        s = PatchSampler(tiny_dataset, "train", PatchSpec(size=64), 2, self.MODALITIES)
        draw = lambda seed: [(b["color"].tobytes(), b["height"].tobytes(), l.tobytes())
                             for b, l in s.batches(12, seed)]
        seeds = range(9, 13)
        in_order = [draw(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                futures = [pool.submit(draw, seed) for seed in seeds]
                at_once = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert at_once == in_order

    @pytest.mark.parametrize("damage, name, error, match", [
        (_nan_at_origins, "height", ValueError,
         r"modality raster \S+/scenes/scene_\d+/height\.mtns holds \d+ non-finite values"),
        (_truncate, "color", TensorFileError,
         r"\S+/scenes/scene_\d+/color\.mtns: truncated payload"),
        (_stray_label, "labels", ValueError,
         r"\S+/scenes/scene_\d+/labels\.mtns, window at \(\d+, \d+\): label 4 is neither"),
    ], ids=["nan-in-window", "truncated", "stray-label"])
    def test_file_changed_after_construction_raises_naming_it(
            self, tiny_dataset, tmp_path, damage, name, error, match):
        """Each batch re-reads its windows: a file rewritten after the
        sampler checked it raises when a batch reads it, naming the file."""
        shutil.copytree(tiny_dataset.root, tmp_path / "ds")
        manifest = load_manifest(tmp_path / "ds" / "manifest.json")
        spec = PatchSpec(size=64)
        s = PatchSampler(manifest, "train", spec, 2, self.MODALITIES)
        for scene in s.scenes:
            damage(manifest.scene_dir(scene.scene_id) / f"{name}.mtns", manifest, spec)
        with pytest.raises(error, match=match):
            next(s.batches(1, 9))

    def test_epochs_differ(self, tiny_dataset):
        spec = PatchSpec(size=64, overlap=0.5)
        s = PatchSampler(tiny_dataset, "train", spec, 4, modalities=self.MODALITIES)
        per_epoch = -(-len(s.index) // 4)
        stream = list(s.batches(per_epoch + 1, 9))
        l0, l1 = stream[0][1], stream[per_epoch][1]  # the first batch of epochs 0 and 1
        assert not np.array_equal(l0, l1)

    def test_batches_counts_steps(self, tiny_dataset):
        spec = PatchSpec(size=64, overlap=0.5)
        s = PatchSampler(tiny_dataset, "train", spec, 4, modalities=self.MODALITIES)
        n = sum(1 for _ in s.batches(2 * len(s.index) // 4 + 3, 9))
        assert n == 2 * len(s.index) // 4 + 3
