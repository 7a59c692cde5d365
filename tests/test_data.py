"""Data pipeline: tensor files, patch grids, augmentation, statistics,
and the synthetic generator's guarantees."""
import json

import numpy as np
import pytest

from hallucinet.data import (
    PatchSampler,
    PatchSpec,
    TensorFileError,
    atomic_write,
    augment,
    axis_origins,
    class_frequencies,
    extract_patch_grid,
    load_manifest,
    load_scene,
    read_tensor_file,
    write_tensor_file,
)
from hallucinet.synthetic import SyntheticConfig, generate_synthetic


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

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            extract_patch_grid(128, 512, PatchSpec(size=256))

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


class TestClassFrequencies:
    def _write_dataset(self, tmp_path, labels_by_scene):
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

    def test_half_and_half(self, tmp_path):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[5:] = 1
        manifest = self._write_dataset(tmp_path, [labels])
        f = class_frequencies(manifest, "train")
        assert np.allclose(f, [0.5, 0.5, 0.0])

    def test_ignore_excluded_and_normalized(self, tmp_path):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[:5, :5] = 255
        labels[5:] = 1
        manifest = self._write_dataset(tmp_path, [labels])
        f = class_frequencies(manifest, "train")
        assert f.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(f, [25 / 75, 50 / 75, 0.0])

    def test_small_block(self, tmp_path):
        labels = np.zeros((100, 100), dtype=np.uint8)
        labels[10:20, 10:20] = 2
        manifest = self._write_dataset(tmp_path, [labels])
        f = class_frequencies(manifest, "train")
        assert f[2] == pytest.approx(0.01, abs=1e-12)

    def test_empty_split_rejected(self, tmp_path):
        manifest = self._write_dataset(tmp_path, [np.zeros((8, 8), dtype=np.uint8)])
        with pytest.raises(ValueError):
            class_frequencies(manifest, "val")

    @pytest.mark.parametrize("reader", [class_frequencies, lambda m, _: load_scene(m, "s1")])
    def test_label_outside_classes_rejected(self, tmp_path, reader):
        # 3 is no class id of the 3 classes and not the ignore label 255
        stray = np.zeros((8, 8), dtype=np.uint8)
        stray[2, 3] = 3
        manifest = self._write_dataset(tmp_path, [np.zeros((8, 8), dtype=np.uint8), stray])
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
        (lambda d: d.update(modalities=[{"name": "color", "channels": 3, "bands": 3}]),
         "modalities[0].bands"),
        (lambda d: d.clear(), "line 1 column 1"),  # not JSON
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
            with pytest.raises(FileNotFoundError, match="missing raster .*height.mtns"):
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
        freqs = class_frequencies(tiny_dataset, "train")
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
        cfg = SyntheticConfig(scene_count=4, size=96, rare_fraction=0.0001,
                              train_scenes=2, val_scenes=1)
        with pytest.raises(ValueError):
            generate_synthetic(1, cfg, tmp_path / "x")

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


class TestPatchSampler:
    def test_deterministic_batches(self, tiny_dataset):
        spec = PatchSpec(size=64, overlap=0.5)
        s1 = PatchSampler(tiny_dataset, "train", spec, 4, seed=9)
        s2 = PatchSampler(tiny_dataset, "train", spec, 4, seed=9)
        for (b1, l1), (b2, l2) in zip(s1.epoch(0), s2.epoch(0)):
            assert np.array_equal(l1, l2)
            for k in b1:
                assert np.array_equal(b1[k], b2[k])

    def test_epochs_differ(self, tiny_dataset):
        spec = PatchSpec(size=64, overlap=0.5)
        s = PatchSampler(tiny_dataset, "train", spec, 4, seed=9)
        l0 = next(iter(s.epoch(0)))[1]
        l1 = next(iter(s.epoch(1)))[1]
        assert not np.array_equal(l0, l1)

    def test_batches_counts_steps(self, tiny_dataset):
        spec = PatchSpec(size=64, overlap=0.5)
        s = PatchSampler(tiny_dataset, "train", spec, 4, seed=9)
        n = sum(1 for _ in s.batches(2 * s.patches_per_epoch // 4 + 3))
        assert n == 2 * s.patches_per_epoch // 4 + 3
