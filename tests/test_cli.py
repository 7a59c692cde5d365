"""Command-line surface: config resolution, commands, exit codes."""
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from checkpoint_records import read_records

import hallucinet.model as model_mod
from hallucinet.cli import main, resolve_config
from hallucinet.data import load_manifest, read_tensor_file, write_tensor_file
from hallucinet.evaluate import ConfusionMatrix, evaluate, metrics
from hallucinet.model import BranchConfig, load_checkpoint
from hallucinet.synthetic import SyntheticConfig
from hallucinet.train import TrainConfig, train_baselines

TINY_TRAIN = {
    "data": {"synthetic": {"seed": 5, "scene_count": 6, "size": 96,
                           "train_scenes": 4, "val_scenes": 1}},
    "model": {"blocks": [[6, 1], [10, 1]], "tap_depth": 1},
    "train": {"patch": {"size": 64}, "stage1_steps": 2, "stage4_steps": 2,
              "batch_size": 2},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def refuses(argv, code, capsys, error, *paths):
    """Assert that `main(argv)` exits `code` with `error`, a regex, in its
    error output, and leaves none of `paths`; return the error output."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert re.search(error, err)
    for path in paths:
        assert not path.exists()
    return err


class TestConfigResolution:
    def test_defaults_materialized(self):
        resolved = resolve_config({})
        assert resolved.train.batch_size == 4
        assert resolved.branch_config(4).tap_depth == 3

    def test_unknown_key_rejected(self):
        from hallucinet.cli import ConfigError

        with pytest.raises(ConfigError):
            resolve_config({"train": {"batch": 4}})
        with pytest.raises(ConfigError):
            resolve_config({"trainer": {}})

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"train": {"bogus": 1}})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_eval_section_rejected(self, tmp_path):
        # eval takes its settings from flags only; a config section would be ignored
        from hallucinet.cli import ConfigError

        with pytest.raises(ConfigError):
            resolve_config({"eval": {"scenario": "1"}})
        cfg = write_config(tmp_path, {"eval": {"scenario": "1"}})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# a value other than the default for every config field, by section
OTHER_VALUES = {
    "data.synthetic": {
        "scene_count": 12, "size": 128, "class_count": 5, "rare_fraction": 0.02,
        "include_ir": True, "train_scenes": 8, "val_scenes": 2, "texture_fraction": 0.5,
        "pair_crossover": 0.2, "availability": {"height": 0.5}},
    "model": {"blocks": [[8, 1], [16, 1], [24, 1], [32, 1]], "first_conv_stride": 1,
              "tap_depth": 1},
    "train": {
        "mode": "multi", "batch_size": 2,
        "patch": {"size": 128, "overlap": 0.25, "flips": False, "rotations": False},
        "stage1_steps": 5, "stage4_steps": 6, "baseline_steps": 7, "lr_stage1": 0.01,
        "lr_stage4": 0.001, "clip_threshold": 2.0, "seed": 3, "mfb": False,
        "gamma": {"multiplier": 5.0, "sample_batches": 2}, "hallucinate": "height"},
}


def _nest(section: str, doc: dict) -> dict:
    for key in reversed(section.split(".")):
        doc = {key: doc}
    return doc


def _built(config, section: str):
    return {"data.synthetic": config.synthetic, "model": config.branch_config(4),
            "train": config.train}[section]


class TestConfigSchema:
    """The config schema is the dataclasses: every field, typed strictly."""

    @pytest.mark.parametrize("section, name", [
        *(("data.synthetic", f.name) for f in fields(SyntheticConfig)),
        *(("model", f.name) for f in fields(BranchConfig) if f.name != "class_count"),
        *(("train", f.name) for f in fields(TrainConfig))])
    def test_every_field_settable(self, section, name):
        value = OTHER_VALUES[section][name]
        config = resolve_config(_nest(section, {name: value}))
        default = _built(resolve_config(_nest(section, {})), section)
        got = getattr(_built(config, section), name)
        assert got != getattr(default, name)
        assert json.loads(json.dumps(asdict(got) if is_dataclass(got) else got)) == value

    @pytest.mark.parametrize("section, doc, key", [
        ("train", {"patch": {"flips": "false"}}, "train.patch.flips"),
        ("train", {"mfb": "false"}, "train.mfb"),
        ("train", {"patch": {"size": 64.9}}, "train.patch.size"),
        ("model", {"blocks": [[32, 2.5]]}, "model.blocks[0][1]"),
        ("data.synthetic", {"texture_fraction": "1"}, "data.synthetic.texture_fraction"),
        ("data.synthetic", {"seed": True}, "data.synthetic.seed"),
        ("train", {"seed": True}, "train.seed"),
        ("model", {"blocks": [[8]]}, "model.blocks[0]"),
        ("train", {"baseline_steps": 1.0}, "train.baseline_steps"),
        # out of range: refused as the config is built, before anything is written
        ("train", {"patch": {"size": 0}}, "train.patch.size"),
        ("train", {"patch": {"size": -64}}, "train.patch.size"),
        ("data.synthetic", {"seed": -1}, "data.synthetic.seed"),
        ("train", {"seed": -1}, "train.seed"),
    ])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_wrong_type_exit_two(self, tmp_path, capsys, command, section, doc, key):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        target = cfg
        for part in section.split("."):
            target = target.setdefault(part, {})
        target.update(doc)
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"objective": {"mfb": False}}, "objective"),
        ({"train": {"patch_size": 64}}, "train.patch_size"),
        ({"train": {"overlap": 0.5}}, "train.overlap"),
        ({"train": {"flips": False}}, "train.flips"),
        ({"train": {"rotations": False}}, "train.rotations"),
        ({"model": {"class_count": 4}}, "model.class_count"),
    ])
    def test_old_and_derived_keys_exit_two(self, tmp_path, capsys, doc, key):
        cfg = write_config(tmp_path, dict(json.loads(json.dumps(TINY_TRAIN)), **doc))
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key {key}" in capsys.readouterr().err

    def test_resolved_config_reloads_to_equal_objects(self, tmp_path):
        doc = _nest("data.synthetic", dict(OTHER_VALUES["data.synthetic"], seed=9))
        doc["model"] = OTHER_VALUES["model"]
        doc["train"] = dict(OTHER_VALUES["train"], mode="single")
        out = tmp_path / "ds"
        assert main(["gen-data", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        first = resolve_config(doc)
        again = resolve_config(json.loads((out / "resolved_config.json").read_text()))
        assert again == first
        assert again.branch_config(5) == first.branch_config(5)


class TestGenData:
    def test_writes_manifest_with_splits(self, tmp_path):
        cfg = write_config(tmp_path, {"data": TINY_TRAIN["data"]})
        out = tmp_path / "ds"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert set(doc["splits"]) == {"train", "val", "test"}
        assert (out / "resolved_config.json").exists()

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"data": TINY_TRAIN["data"]})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(b)]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*.mtns"))
        files_b = sorted(p.relative_to(b) for p in b.rglob("*.mtns"))
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_rare_fraction_measured(self, tmp_path):
        doc = {"data": {"synthetic": dict(TINY_TRAIN["data"]["synthetic"],
                                          rare_fraction=0.015, size=128)}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "ds"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        counts = np.zeros(5, dtype=np.int64)
        for labels_path in out.rglob("labels.mtns"):
            labels = read_tensor_file(labels_path)
            counts += np.bincount(labels.ravel(), minlength=5)[:5]
        measured = counts[3] / counts.sum()
        assert abs(measured - 0.015) < 0.005

    def test_missing_synthetic_block_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"data": {"manifest": "x.json"}})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("availability", [{"height": -0.5}, {"height": "0.5"},
                                              {"depth": 0.0}])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_bad_availability_exit_two(self, tmp_path, capsys, command, availability):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["data"]["synthetic"]["availability"] = availability
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "availability" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "dataset").exists()

    @pytest.mark.parametrize("synthetic, key", [
        ({"train_scenes": 9}, "train_scenes"),
        ({"val_scenes": 0}, "val_scenes"),
        ({"rare_fraction": -0.5}, "rare_fraction"),
        ({"rare_fraction": 0.0001}, "rare_fraction"),  # below one disc of a 96x96 scene
        ({"rare_fraction": 0.2}, "rare_fraction"),
        ({"class_count": 300}, "data.synthetic.class_count must be at most 255"),
    ])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_config_it_cannot_generate_writes_nothing(self, tmp_path, capsys, command,
                                                      synthetic, key):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["data"]["synthetic"].update(synthetic)
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_non_finite_number_exit_two(tmp_path, capsys, command, constant):
    # Python's json reads these tokens as floats; a config must not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_TRAIN).replace('"stage1_steps": 2',
                                                  f'"lr_stage1": {constant}, "stage1_steps": 2'))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert constant in capsys.readouterr().err
    assert not out.exists()


def _edited(edit):
    """A damage that writes the trained run's manifest, `edit(doc)` applied,
    beside the test."""
    def damage(dataset: Path, tmp_path, split: str) -> Path:
        doc = json.loads((dataset / "manifest.json").read_text())
        edit(doc)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        return manifest
    return damage


def _scene_outside(dataset: Path, tmp_path, split: str) -> Path:
    # "../outside" would read the rasters of a directory beside scenes/
    ds = tmp_path / "ds"
    shutil.copytree(dataset, ds)
    doc = json.loads((ds / "manifest.json").read_text())
    scene = doc["splits"][split][0]
    (ds / "scenes" / scene["id"]).rename(ds / "outside")
    scene["id"] = "../outside"
    (ds / "manifest.json").write_text(json.dumps(doc))
    return ds / "manifest.json"


def _float_labels(dataset: Path, tmp_path, split: str) -> Path:
    # float labels such as -0.5 and 2.7 would be truncated to class ids
    shutil.copytree(dataset, tmp_path / "ds")
    for path in (tmp_path / "ds" / "scenes").rglob("labels.mtns"):
        labels = read_tensor_file(path).astype(np.float32)
        labels[0, :2] = -0.5, 2.7
        write_tensor_file(path, labels)
    return tmp_path / "ds" / "manifest.json"


def _first_raster(manifest: Path, split: str, modality: str) -> Path:
    scene = json.loads(manifest.read_text())["splits"][split][0]["id"]
    return manifest.parent / "scenes" / scene / f"{modality}.mtns"


def _nan_height_corner(dataset: Path, tmp_path, split: str) -> Path:
    """A copy of the dataset whose first scene of `split` has NaN in an 8x8
    corner of its height raster."""
    shutil.copytree(dataset, tmp_path / "ds")
    path = _first_raster(tmp_path / "ds" / "manifest.json", split, "height")
    height = read_tensor_file(path).copy()
    height[:, :8, :8] = np.nan
    write_tensor_file(path, height)
    return tmp_path / "ds" / "manifest.json"


def _four_channel_color(dataset: Path, tmp_path, split: str) -> Path:
    """A copy of the dataset whose color rasters have a fourth channel,
    where the manifest lists 3."""
    shutil.copytree(dataset, tmp_path / "ds")
    for path in (tmp_path / "ds" / "scenes").rglob("color.mtns"):
        color = read_tensor_file(path)
        write_tensor_file(path, np.concatenate([color, color[:1]]))
    return tmp_path / "ds" / "manifest.json"


def _scene_in_two_splits(dataset: Path, tmp_path, split: str) -> Path:
    """A copy of the dataset whose val split lists the test scene too."""
    shutil.copytree(dataset, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["splits"]["val"].append(doc["splits"]["test"][0])
    manifest.write_text(json.dumps(doc))
    return manifest


def _labels_of_rank_three(dataset: Path, tmp_path, split: str) -> Path:
    """A copy of the dataset whose first scene of `split` has uint8 labels
    of shape (1,H,W)."""
    shutil.copytree(dataset, tmp_path / "ds")
    path = _first_raster(tmp_path / "ds" / "manifest.json", split, "labels")
    write_tensor_file(path, read_tensor_file(path)[None])
    return tmp_path / "ds" / "manifest.json"


def _malformed(field: str):
    """The error of a manifest refused when it is read, as a regex of the
    manifest's path and the split read; `field` may name {split}."""
    return lambda manifest, split: re.escape(f"malformed manifest {manifest}: "
                                             + field.format(split=split))


# (damage(dataset, tmp_path, split) -> the damaged manifest, eval's
# --scenario or None for its default, error(manifest, split) -> a regex of stderr)
MANIFEST_DEFECTS = [
    pytest.param(_edited(lambda doc: doc["modalities"][1].update(channels=0)), None,
                 _malformed("modalities[1].channels must be at least 1"), id="zero-channels"),
    pytest.param(_edited(lambda doc: doc["modalities"].append(dict(doc["modalities"][0]))),
                 None, _malformed("modalities[2].name 'color' repeats"), id="repeated-modality"),
    # an excluded class no class id can be, or the always-available
    # modality flagged absent
    pytest.param(_edited(lambda doc: doc.update(excluded_classes=[9, -1])), None,
                 _malformed("excluded_classes[0] is 9, not a class id"), id="excluded-9"),
    pytest.param(_edited(lambda doc: doc.update(excluded_classes=[1, -1])), None,
                 _malformed("excluded_classes[1] is -1, not a class id"), id="excluded-minus-1"),
    pytest.param(_edited(lambda doc: doc["splits"]["test"][0]["availability"].update(color=False)),
                 None, _malformed("splits.test[0].availability flags 'color' false"),
                 id="color-flagged-absent"),
    pytest.param(_edited(lambda doc: doc.update(class_count=256,
                                                class_names=[f"c{i}" for i in range(256)])),
                 None, _malformed("class_count must be in 2..255"), id="class-count-256"),
    pytest.param(_edited(lambda doc: doc.update(class_count=1, class_names=["c0"])), None,
                 _malformed("class_count must be in 2..255"), id="class-count-1"),
    # there is no always-available modality to route or train on
    pytest.param(_edited(lambda doc: doc.update(modalities=[])), "2",
                 _malformed("modalities is empty"), id="no-modalities"),
    # a misspelled flag would leave the height branch routed as available
    pytest.param(_edited(lambda doc: doc["splits"]["test"][0].update(
                     availability={"heigth": False})), "2",
                 _malformed("splits.test[0].availability names 'heigth', "
                            "not a modality of the manifest"), id="misspelled-flag"),
    pytest.param(_scene_outside, "2",
                 _malformed("splits.{split}[0].id '../outside' is not one plain directory name"),
                 id="scene-id-outside"),
    pytest.param(_float_labels, "2",
                 lambda manifest, split: r"scene scene_\d+: labels \S+labels\.mtns are "
                                         r"float32, not uint8", id="float-labels"),
    # refused when the raster is read, not in the forward or mid-training
    pytest.param(_nan_height_corner, None,
                 lambda manifest, split: re.escape(
                     f"modality raster {_first_raster(manifest, split, 'height')} holds 64 "
                     "non-finite values"), id="nan-height-corner"),
    # refused when the raster is read, not at the first forward
    pytest.param(_four_channel_color, None,
                 lambda manifest, split: re.escape(
                     f"modality raster {_first_raster(manifest, split, 'color')} has 4 "
                     "channels, the manifest gives 3"), id="four-channel-color"),
    pytest.param(_scene_in_two_splits, None,
                 lambda manifest, split: re.escape("scene scene_005 appears in more than one split"),
                 id="scene-in-two-splits"),
    pytest.param(_labels_of_rank_three, None,
                 lambda manifest, split: re.escape(
                     f"scene {_first_raster(manifest, split, 'labels').parent.name}: "
                     "labels must be (H,W), not of shape (1, 96, 96)"),
                 id="labels-of-rank-three"),
]


@pytest.mark.parametrize("damage, scenario, error", MANIFEST_DEFECTS)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_defect_writes_nothing(trained, tmp_path, capsys, command, damage, scenario,
                                        error):
    """A damaged copy of the trained run's dataset exits 2 and leaves
    nothing under --out, for train on a config that reads it and for eval
    of the run's stage-4 checkpoint on it: the manifest is refused when it
    is read and a scene when it is loaded, before the resolved config is
    written."""
    _, out = trained
    split = "train" if command == "train" else "test"
    manifest = damage(out / "dataset", tmp_path, split)
    if command == "train":
        argv = ["train", "--config",
                write_config(tmp_path, {**TINY_TRAIN, "data": {"manifest": str(manifest)}})]
    else:
        argv = ["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                "--manifest", str(manifest)] + (["--scenario", scenario] if scenario else [])
    dest = tmp_path / "o"
    assert main(argv + ["--out", str(dest)]) == 2
    assert re.search(error(manifest, split), capsys.readouterr().err)
    assert not dest.exists()


def _stray_labels(dataset: Path):
    """Give each scene one pixel labelled 9, neither a class id of the 4
    classes nor the ignore label."""
    for path in (dataset / "scenes").rglob("labels.mtns"):
        labels = read_tensor_file(path).copy()
        labels[0, 0] = 9
        write_tensor_file(path, labels)


def _train_ids(dataset: Path) -> list[str]:
    return [rec["id"] for rec in json.loads((dataset / "manifest.json").read_text())
            ["splits"]["train"]]


def _empty_train_split(dataset: Path):
    doc = json.loads((dataset / "manifest.json").read_text())
    doc["splits"]["train"] = []
    (dataset / "manifest.json").write_text(json.dumps(doc))


def _missing_labels(dataset: Path):
    (dataset / "scenes" / _train_ids(dataset)[0] / "labels.mtns").unlink()


def _ignored_train_labels(dataset: Path):
    for scene in _train_ids(dataset):
        path = dataset / "scenes" / scene / "labels.mtns"
        write_tensor_file(path, np.full_like(read_tensor_file(path), 255))


def _rank_two_height(dataset: Path):
    path = dataset / "scenes" / _train_ids(dataset)[0] / "height.mtns"
    write_tensor_file(path, read_tensor_file(path)[0])


def _flag_height_absent(raster_kept: bool):
    """A damage that flags height absent in the first train scene, and
    deletes its raster unless `raster_kept`."""
    def damage(dataset: Path):
        doc = json.loads((dataset / "manifest.json").read_text())
        scene = doc["splits"]["train"][0]
        scene["availability"]["height"] = False
        (dataset / "manifest.json").write_text(json.dumps(doc))
        if not raster_kept:
            (dataset / "scenes" / scene["id"] / "height.mtns").unlink()
    return damage


def _intact(dataset: Path):
    """No damage: the config reads an unchanged copy of the dataset."""


def _set(settings: dict):
    """A config edit that sets each dotted path of `settings` to its value."""
    def edit(doc: dict) -> str:
        for path, value in settings.items():
            *keys, last = path.split(".")
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
        return json.dumps(doc)
    return edit


def _raw(setting: str):
    """A config edit that writes `setting` into the train section as raw
    JSON text: json reads 1e999 as inf."""
    return lambda doc: json.dumps(doc).replace('"stage1_steps": 2', f'{setting}, "stage1_steps": 2')


# (damage(dataset) of a copy of the trained run's dataset, which the config
# then reads, or None for the synthetic data; edit(config doc) -> config
# text; train's exit code; regexes of stderr)
TRAIN_REFUSALS = [
    pytest.param(_stray_labels, json.dumps, 2, [r"scene scene_\d+: label 9 "], id="stray-label"),
    pytest.param(_flag_height_absent(True), json.dumps, 6,
                 [re.escape("scene scene_000 flags modality 'height'")],
                 id="flagged-height-kept"),
    pytest.param(_flag_height_absent(False), json.dumps, 6,
                 [re.escape("scene scene_000 flags modality 'height'")],
                 id="flagged-height-deleted"),
    pytest.param(_missing_labels, json.dumps, 3,
                 [re.escape("missing labels for scene scene_000")], id="missing-labels"),
    # refused by the sampler
    pytest.param(_empty_train_split, json.dumps, 2, [re.escape("split 'train' is empty")],
                 id="empty-train-split"),
    pytest.param(_ignored_train_labels, json.dumps, 2,
                 [re.escape("split 'train' contains only ignored pixels")], id="ignored-labels"),
    pytest.param(_rank_two_height, json.dumps, 2,
                 [re.escape("height.mtns must be (C,H,W), got shape (96, 96)")],
                 id="rank-two-height"),
    # factor 2 * 2**5 = 64
    pytest.param(None, _set({"model.blocks": [[4, 1]] * 5, "train.patch.size": 96}), 2,
                 [re.escape("train.patch.size 96")], id="patch-off-the-factor"),
    pytest.param(None, _set({"train.patch.size": 128}), 2,
                 [re.escape("train.patch.size 128"), re.escape("data.synthetic.size 96")],
                 id="patch-larger-than-the-scenes"),
    pytest.param(_intact, _set({"train.patch.size": 128}), 2,
                 [re.escape("train.patch.size 128 is larger than train scene scene_000 (96x96)")],
                 id="patch-larger-than-a-manifest-scene"),
    # refused on the modality list of the config or the manifest
    *[pytest.param(damage, _set({"train.mode": "multi"}), 2,
                   [re.escape("hallucinates 2 optional modalities; the dataset has 1 (height)")],
                   id=f"multi-mode-one-optional-{data}")
      for damage, data in ((None, "synthetic"), (_intact, "manifest"))],
    *[pytest.param(None, _raw(f'"{name}": {value}'), 2,
                   [re.escape(f"train.{name} must be finite and non-negative")],
                   id=f"{name}-{value}")
      for name in ("lr_stage1", "lr_stage4") for value in ("-0.001", "1e999")],
    pytest.param(None, _raw('"clip_threshold": 1e999'), 2,
                 [re.escape("train.clip_threshold must be finite and positive, got inf")],
                 id="clip_threshold-inf"),
    pytest.param(None, _raw('"gamma": {"multiplier": 1e999}'), 2,
                 [re.escape("train.gamma.multiplier must be finite and positive, got inf")],
                 id="gamma.multiplier-inf"),
    pytest.param(None, _set({"train.hallucinate": "color"}), 2,
                 [re.escape("train.hallucinate 'color' is not an optional modality (height)")],
                 id="hallucinate-always-available"),
    pytest.param(None, _set({"data.synthetic.include_ir": True, "train.mode": "multi",
                             "train.hallucinate": "ir"}), 2,
                 [re.escape("train.hallucinate is for mode 'single'; mode 'multi' hallucinates "
                            "the optional modalities in order")],
                 id="hallucinate-with-multi-mode"),
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    cfg = write_config(tmp, TINY_TRAIN)
    out = tmp / "run"
    code = main(["train", "--config", cfg, "--out", str(out)])
    assert code == 0
    return tmp, out


@pytest.fixture(scope="module")
def baselines(trained):
    """Checkpoints of single-branch baseline variants 0 and 1 on the trained run's data."""
    tmp, out = trained
    manifest = load_manifest(out / "dataset" / "manifest.json")
    config = resolve_config(TINY_TRAIN)
    run = tmp / "baselines"
    train_baselines(manifest, config.branch_config(manifest.class_count),
                    replace(config.train, baseline_steps=1), run)
    return [run / f"checkpoint_baseline{v}.ckpt" for v in (0, 1)]


class TestTrain:
    def test_single_mode_artifacts(self, trained):
        _, out = trained
        assert (out / "checkpoint_stage4.ckpt").exists()
        assert (out / "train_log.jsonl").exists()
        assert (out / "resolved_config.json").exists()
        bundle = load_checkpoint(out / "checkpoint_stage4.ckpt")
        assert len(bundle.branches) == 3

    def test_multi_mode_five_branches(self, tmp_path):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["data"]["synthetic"]["include_ir"] = True
        doc["train"]["mode"] = "multi"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        bundle = load_checkpoint(out / "checkpoint_stage4.ckpt")
        assert len(bundle.branches) == 5

    def test_mfb_off_logs_unit_weights(self, tmp_path):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["train"]["mfb"] = False
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        first = json.loads((out / "train_log.jsonl").read_text().splitlines()[0])
        assert first["stage"] == "setup"
        assert all(w == 1.0 for w in first["class_weights"])

    def test_log_replays_totals(self, trained):
        _, out = trained
        for line in (out / "train_log.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if rec["stage"] != "stage4":
                continue
            hal = sum(v for k, v in rec["terms"].items() if k.startswith("hallucinate"))
            other = sum(v for k, v in rec["terms"].items()
                        if not k.startswith("hallucinate"))
            assert rec["total"] == pytest.approx(rec["gamma"] * hal + other, rel=1e-6)

    def test_resolved_config_retrains_identically(self, trained, tmp_path):
        _, out = trained
        resolved = out / "resolved_config.json"
        first, again = resolve_config(TINY_TRAIN), resolve_config(json.loads(resolved.read_text()))
        assert (again.seed, again.synthetic, again.train, again.branch_config(4)) == \
            (first.seed, first.synthetic, first.train, first.branch_config(4))
        rerun = tmp_path / "rerun"
        assert main(["train", "--config", str(resolved), "--out", str(rerun)]) == 0
        for name in ("checkpoint_stage4.ckpt", "train_log.jsonl", "resolved_config.json"):
            assert (rerun / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("damage, edit, code, errors", TRAIN_REFUSALS)
    def test_refusal_writes_nothing(self, trained, tmp_path, capsys, damage, edit, code, errors):
        """A refused run exits `code` before it writes anything under --out:
        no checkpoint, no resolved config, no dataset."""
        _, out = trained
        doc = json.loads(json.dumps(TINY_TRAIN))
        if damage is not None:
            ds = tmp_path / "ds"
            shutil.copytree(out / "dataset", ds)
            damage(ds)
            doc["data"] = {"manifest": str(ds / "manifest.json")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(edit(doc))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == code
        err = capsys.readouterr().err
        for error in errors:
            assert re.search(error, err)
        assert not run.exists()

    def test_each_file_decoded_once(self, trained, tmp_path, monkeypatch):
        # the sampler decodes every label file and raster of the train split
        # once, and nothing else reads them
        import hallucinet.data as data_mod

        _, out = trained
        decoded = []
        read = data_mod.read_tensor_file

        def spy(path):
            decoded.append(Path(path))
            return read(path)

        monkeypatch.setattr(data_mod, "read_tensor_file", spy)
        manifest = out / "dataset" / "manifest.json"
        cfg = write_config(tmp_path, {**TINY_TRAIN, "data": {"manifest": str(manifest)}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        scenes = manifest.parent / "scenes"
        train = [rec["id"] for rec in json.loads(manifest.read_text())["splits"]["train"]]
        assert sorted(decoded) == sorted(scenes / i / f"{name}.mtns" for i in train
                                         for name in ("color", "height", "labels"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        # an update of magnitude ~1e38 overflows the next float32 conv
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["train"]["lr_stage1"] = 1e38
        doc["train"]["clip_threshold"] = 1e38
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 4


class TestEval:
    def test_scenarios_give_distinct_reports_same_model(self, trained, tmp_path):
        _, out = trained
        manifest = out / "dataset" / "manifest.json"
        ckpt = out / "checkpoint_stage4.ckpt"
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        args = ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]
        assert main(args + ["--scenario", "1", "--out", str(e1)]) == 0
        assert main(args + ["--scenario", "all", "--out", str(e2)]) == 0
        r1 = json.loads((e1 / "report.json").read_text())
        r2 = json.loads((e2 / "report.json").read_text())
        assert (r1["mode"], r2["mode"]) == ("scenario=1 stage=stage4", "scenario=all stage=stage4")
        assert (e1 / "confusion.mtns").exists()
        # the library's evaluate gives the same label as the command
        bundle, dataset = load_checkpoint(ckpt), load_manifest(manifest)
        assert [evaluate(bundle, dataset, "test", s)[0]["mode"] for s in ("1", "all")] == \
            [r1["mode"], r2["mode"]]

    def test_report_regeneration_from_confusion(self, trained, tmp_path):
        _, out = trained
        manifest = out / "dataset" / "manifest.json"
        e = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--manifest", str(manifest), "--scenario", "1",
                     "--out", str(e)]) == 0
        doc = json.loads((e / "report.json").read_text())
        conf = ConfusionMatrix(read_tensor_file(e / "confusion.mtns").astype(np.int64))
        dataset = json.loads(manifest.read_text())
        assert doc == {"mode": "scenario=1 stage=stage4", "class_names": dataset["class_names"],
                       **metrics(conf, dataset["excluded_classes"])}

    def test_malformed_manifest_exit_two(self, trained, tmp_path, capsys):
        _, out = trained
        doc = json.loads((out / "dataset" / "manifest.json").read_text())
        doc["modalities"][1]["channels"] = None
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        refuses(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--manifest", str(manifest), "--out", str(tmp_path / "e")], 2, capsys,
                re.escape(f"malformed manifest {manifest}: modalities[1].channels"),
                tmp_path / "e")

    def test_stray_label_exit_two(self, trained, tmp_path, capsys):
        _, out = trained
        shutil.copytree(out / "dataset", tmp_path / "ds")
        _stray_labels(tmp_path / "ds")
        refuses(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--manifest", str(tmp_path / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "e")], 2, capsys, r"scene scene_\d+: label 9 ",
                tmp_path / "e")

    def test_ensemble_baseline_runs(self, trained, tmp_path):
        _, out = trained
        ckpt = str(out / "checkpoint_stage4.ckpt")
        code = main(["eval", "--checkpoint", ckpt, "--checkpoint-b", ckpt,
                     "--manifest", str(out / "dataset" / "manifest.json"),
                     "--out", str(tmp_path / "e")])
        assert code == 0
        doc = json.loads((tmp_path / "e" / "report.json").read_text())
        assert doc["mode"] == "scenario=all stage=stage4 ensemble=stage4"

    def test_ensemble_of_two_baselines_runs(self, trained, baselines, tmp_path):
        _, out = trained
        code = main(["eval", "--checkpoint", str(baselines[0]), "--checkpoint-b",
                     str(baselines[1]), "--manifest", str(out / "dataset" / "manifest.json"),
                     "--scenario", "1", "--out", str(tmp_path / "e")])
        assert code == 0
        doc = json.loads((tmp_path / "e" / "report.json").read_text())
        assert doc["mode"] == "scenario=1 stage=baseline ensemble=baseline"

    @pytest.mark.parametrize("scenario", ["1", "all"])
    @pytest.mark.parametrize("baseline_first", [True, False])
    def test_ensemble_of_two_rosters_exit_five(self, trained, baselines, tmp_path, capsys,
                                               scenario, baseline_first):
        _, out = trained
        pair = [str(baselines[0]), str(out / "checkpoint_stage4.ckpt")]
        if not baseline_first:
            pair.reverse()
        refuses(["eval", "--checkpoint", pair[0], "--checkpoint-b", pair[1],
                 "--manifest", str(out / "dataset" / "manifest.json"),
                 "--scenario", scenario, "--out", str(tmp_path / "e")], 5, capsys,
                re.escape(f"an ensemble needs one roster: {pair[0]} has branches ") + ".*"
                + re.escape(f"; {pair[1]} has "), tmp_path / "e")

    def test_unavailable_raster_may_be_absent(self, trained, tmp_path, capsys):
        """A test scene flagged without height needs no height raster; a
        scene flagged with it still does (exit 6, naming the file)."""
        _, out = trained
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["data"]["synthetic"]["availability"] = {"height": 0.0}
        ds = tmp_path / "ds"
        assert main(["gen-data", "--config", write_config(tmp_path, doc),
                     "--out", str(ds)]) == 0
        manifest = ds / "manifest.json"
        tests = json.loads(manifest.read_text())["splits"]["test"]
        assert tests and all(rec["availability"] == {"height": False} for rec in tests)
        for rec in tests:
            (ds / "scenes" / rec["id"] / "height.mtns").unlink()
        args = ["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                "--manifest", str(manifest)]
        for scenario in ("1", "2"):
            assert main(args + ["--scenario", scenario,
                                "--out", str(tmp_path / f"e{scenario}")]) == 0
        manifest_doc = json.loads(manifest.read_text())
        manifest_doc["splits"]["test"][0]["availability"] = {"height": True}
        manifest.write_text(json.dumps(manifest_doc))
        assert main(args + ["--scenario", "1", "--out", str(tmp_path / "e3")]) == 6
        assert "height.mtns" in capsys.readouterr().err

    def test_channel_count_mismatch_exit_five(self, trained, tmp_path, capsys):
        # a 4-channel color modality against branches that take 3, refused
        # before any scene is read
        _, out = trained
        ds = tmp_path / "ds"
        shutil.copytree(out / "dataset", ds)
        for path in (ds / "scenes").rglob("color.mtns"):
            color = read_tensor_file(path)
            write_tensor_file(path, np.concatenate([color, color[:1]]))
        doc = json.loads((ds / "manifest.json").read_text())
        doc["modalities"][0]["channels"] = 4
        (ds / "manifest.json").write_text(json.dumps(doc))
        ckpt = out / "checkpoint_stage4.ckpt"
        refuses(["eval", "--checkpoint", str(ckpt), "--manifest", str(ds / "manifest.json"),
                 "--out", str(tmp_path / "e")], 5, capsys,
                re.escape(f"checkpoint {ckpt}: branch hal_depth takes 3 channels of 'color', "
                          "the manifest gives 4"), tmp_path / "e")

    def test_mismatched_manifest_exit_five(self, trained, tmp_path, capsys):
        _, out = trained
        other = {"data": {"synthetic": {"seed": 1, "scene_count": 4, "size": 96,
                                        "class_count": 5, "train_scenes": 2,
                                        "val_scenes": 1}}}
        cfg = write_config(tmp_path, other)
        ds = tmp_path / "ds5"
        assert main(["gen-data", "--config", cfg, "--out", str(ds)]) == 0
        ckpt = out / "checkpoint_stage4.ckpt"
        refuses(["eval", "--checkpoint", str(ckpt), "--manifest", str(ds / "manifest.json"),
                 "--out", str(tmp_path / "e")], 5, capsys,
                re.escape(f"checkpoint {ckpt}: 4 classes, the manifest has 5"), tmp_path / "e")


@pytest.mark.parametrize("argv", [
    ["gen-data", "--config", "c.json", "--out", "o", "--seed", "1"],
    ["train", "--config", "c.json", "--out", "o", "--seed", "1"],
    ["eval", "--checkpoint", "c", "--manifest", "m", "--out", "o", "--baseline", "ensemble"],
    ["eval", "--checkpoint", "c", "--manifest", "m", "--out", "o", "--scenario", "3"],
], ids=["gen-data-seed", "train-seed", "eval-baseline", "eval-scenario-3"])
def test_removed_options_exit_two(argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_no_window_options(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert "--checkpoint" in text
    assert "--tile" not in text and "--halo" not in text


class TestInfer:
    def test_routing_and_dims(self, trained, tmp_path):
        _, out = trained
        scene = out / "dataset" / "scenes" / "scene_005"
        dest = tmp_path / "map.mtns"
        code = main(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--scene", str(scene), "--availability", "height=false",
                     "--out", str(dest),
                     "--png", str(tmp_path / "map.png")])
        assert code == 0
        routing = json.loads(dest.with_suffix(".routing.json").read_text())
        assert set(routing["selected_branches"]) == {"rgb", "hal_depth"}
        # a 96x96 scene fits the forward budget: one window, halo = radius 16
        assert (routing["windows"], routing["window_hw"], routing["halo"]) == (1, [96, 96], 16)
        class_map = read_tensor_file(dest)
        labels = read_tensor_file(scene / "labels.mtns")
        assert class_map.shape == labels.shape
        assert (tmp_path / "map.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    def test_png_into_a_new_directory(self, trained, tmp_path):
        _, out = trained
        png = tmp_path / "new" / "dir" / "map.png"
        code = main(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--scene", str(out / "dataset" / "scenes" / "scene_005"),
                     "--availability", "height=false", "--out", str(tmp_path / "m.mtns"),
                     "--png", str(png)])
        assert code == 0
        assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    @pytest.mark.parametrize("flags, named", [("heigth=false", "heigth"),
                                              ("color=false", "color"),
                                              ("height=false,ir=true,x=true", "ir, x")])
    def test_unknown_availability_names_exit_two(self, trained, tmp_path, capsys, flags, named):
        _, out = trained
        dest = tmp_path / "map.mtns"
        refuses(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--scene", str(out / "dataset" / "scenes" / "scene_005"),
                 "--availability", flags, "--out", str(dest)], 2, capsys,
                re.escape(f"--availability names {named}, not optional"),
                dest, dest.with_suffix(".routing.json"))

    def test_rerun_identical_bytes(self, trained, tmp_path):
        _, out = trained
        scene = out / "dataset" / "scenes" / "scene_005"
        args = lambda p: ["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                          "--scene", str(scene), "--out", str(p)]
        assert main(args(tmp_path / "m1.mtns")) == 0
        assert main(args(tmp_path / "m2.mtns")) == 0
        assert (tmp_path / "m1.mtns").read_bytes() == (tmp_path / "m2.mtns").read_bytes()

    @pytest.mark.parametrize("small", ["color", "height"])
    def test_rasters_of_different_extents_exit_two(self, trained, tmp_path, capsys, small):
        from hallucinet.data import write_tensor_file

        _, out = trained
        scene_src = out / "dataset" / "scenes" / "scene_005"
        scene = tmp_path / "scene"
        scene.mkdir()
        for mod in ("color", "height"):
            arr = read_tensor_file(scene_src / f"{mod}.mtns")
            write_tensor_file(scene / f"{mod}.mtns", arr[:, :64, :64] if mod == small else arr)
        extents = ", ".join(f"{mod} {'64x64' if mod == small else '96x96'}"
                            for mod in ("color", "height"))
        dest = tmp_path / "m.mtns"
        refuses(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--scene", str(scene), "--availability", "height=true", "--out", str(dest)],
                2, capsys, re.escape(f"scene rasters differ in extent: {extents}"),
                dest, dest.with_suffix(".routing.json"))

    @pytest.mark.parametrize("rank", [2, 4])
    def test_raster_of_wrong_rank_exit_two(self, trained, tmp_path, capsys, rank):
        _, out = trained
        color = read_tensor_file(out / "dataset" / "scenes" / "scene_005" / "color.mtns")
        scene = tmp_path / "scene"
        scene.mkdir()
        write_tensor_file(scene / "color.mtns", color[0] if rank == 2 else color[None])
        dest = tmp_path / "m.mtns"
        refuses(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--scene", str(scene), "--availability", "height=false", "--out", str(dest)],
                2, capsys, re.escape(f"modality raster {scene / 'color.mtns'} must be (C,H,W)"),
                dest, dest.with_suffix(".routing.json"))

    def test_class_ids_beyond_uint8_exit_two_before_inference(self, trained, tmp_path, capsys,
                                                               monkeypatch):
        import hallucinet.cli as cli_mod
        from hallucinet.model import ModelBundle, build_branch, save_checkpoint

        _, out = trained
        config = BranchConfig(class_count=257, blocks=((6, 1), (10, 1)), tap_depth=1)
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(ModelBundle(config, {"rgb": build_branch(config, 3, "rgb", 1)},
                                    {"rgb": "color"}), ckpt)

        def no_inference(*args, **kwargs):
            raise AssertionError("inference ran")

        monkeypatch.setattr(cli_mod, "tiled_inference", no_inference)
        dest = tmp_path / "m.mtns"
        refuses(["infer", "--checkpoint", str(ckpt),
                 "--scene", str(out / "dataset" / "scenes" / "scene_005"), "--out", str(dest)],
                2, capsys, re.escape("infer writes class ids as uint8; the checkpoint has "
                                     "257 classes"), dest, dest.with_suffix(".routing.json"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raster_exit_two(self, trained, tmp_path, capsys, value):
        _, out = trained
        scene = tmp_path / "scene"
        shutil.copytree(out / "dataset" / "scenes" / "scene_005", scene)
        height = read_tensor_file(scene / "height.mtns").copy()
        height[:, :8, :8] = value
        write_tensor_file(scene / "height.mtns", height)
        dest = tmp_path / "o"
        refuses(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--scene", str(scene), "--out", str(dest / "m.mtns"),
                 "--png", str(dest / "m.png")], 2, capsys,
                re.escape(f"modality raster {scene / 'height.mtns'} holds 64 non-finite values"),
                dest)

    def test_missing_modality_exit_six(self, trained, tmp_path, capsys):
        _, out = trained
        scene_src = out / "dataset" / "scenes" / "scene_005"
        broken = tmp_path / "scene"
        broken.mkdir()
        (broken / "height.mtns").write_bytes((scene_src / "height.mtns").read_bytes())
        dest = tmp_path / "m.mtns"
        refuses(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                 "--scene", str(broken), "--out", str(dest)], 6, capsys,
                re.escape(f"scene lacks required modality file {broken / 'color.mtns'}"),
                dest, dest.with_suffix(".routing.json"))


def _flip_middle_byte(blob: bytes) -> bytes:
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]


def _ckpt_bytes(edit):
    """A damage that writes the checkpoint's bytes, `edit(blob)` applied."""
    return lambda src, dest: dest.write_bytes(edit(src.read_bytes()))


def _ckpt_records(edit):
    """A damage that writes the checkpoint again, `edit(header, tensors)`
    applied; the checksum covers the tensor records, not the header."""
    def damage(src, dest):
        header, tensors = read_records(src)
        edit(header, tensors)
        model_mod._write_checkpoint(dest, header, tensors)
    return damage


def _flipped(edit):
    """A damage that writes the checkpoint again, `edit(header, tensors)`
    applied, then flips a payload byte, which fails the checksum."""
    def damage(src, dest):
        _ckpt_records(edit)(src, dest)
        dest.write_bytes(_flip_middle_byte(dest.read_bytes()))
    return damage


def _tap_depth_9(header, tensors):
    header["config"]["tap_depth"] = 9


def _unused_tensor(header, tensors):
    tensors["rgb/block0/conv0/bias"] = np.zeros(6, dtype=np.float32)
    header["tensors"].append("rgb/block0/conv0/bias")


def _overflowing(src, dest):
    """Every branch's first conv weights at 3e38."""
    bundle = load_checkpoint(src)
    for branch in bundle.branches.values():
        branch.blocks[0][0].weight.data.fill(3e38)
    model_mod.save_checkpoint(bundle, dest)


# (damage(checkpoint, dest) writes a defective copy of the checkpoint to
# dest, the exit code, the error text; {ckpt} stands for the copy's path)
CHECKPOINT_DEFECTS = [
    pytest.param(_ckpt_bytes(lambda blob: blob[:len(blob) // 2]), 5,
                 "checkpoint {ckpt}: truncated payload", id="truncate"),
    pytest.param(_ckpt_bytes(lambda blob: blob + b"junk"), 5,
                 "checkpoint {ckpt}: 4 trailing bytes after the last record", id="trailing"),
    pytest.param(_ckpt_bytes(lambda blob: blob[:8] + b"!" + blob[9:]), 5,
                 "checkpoint {ckpt}: Expecting value", id="header"),
    pytest.param(_ckpt_bytes(_flip_middle_byte), 5,
                 "checkpoint {ckpt}: tensor records do not match their checksum", id="flip"),
    # every version but 3 is refused by name, true (== 1 in Python) too,
    # before the checksum is read
    *[pytest.param(_flipped(lambda header, _, version=version: header.update(
                       format_version=version)), 5,
                   f"checkpoint {{ckpt}}: unsupported format version {json.dumps(version)}",
                   id=f"version-{version}") for version in (1, 2, True)],
    # a branch the header cannot build is reported after the checksum
    pytest.param(_ckpt_records(_tap_depth_9), 5, "checkpoint {ckpt}: tap depth 9 outside 1..2",
                 id="tap-depth-9"),
    pytest.param(_flipped(_tap_depth_9), 5,
                 "checkpoint {ckpt}: tensor records do not match their checksum",
                 id="tap-depth-9-and-flip"),
    pytest.param(_ckpt_records(_unused_tensor), 5,
                 "checkpoint {ckpt}: tensors no branch uses: rgb/block0/conv0/bias",
                 id="unused-tensor"),
    pytest.param(_ckpt_records(lambda _, tensors: tensors.update(
                     {"rgb/block0/bn0/running_mean": np.zeros(1, dtype=np.float32)})), 5,
                 "checkpoint {ckpt}: tensor rgb/block0/bn0/running_mean has shape (1,)",
                 id="buffer-of-another-shape"),
    pytest.param(_ckpt_records(lambda _, tensors: tensors.update(
                     {"rgb/block0/bn0/scale": np.arange(
                         len(tensors["rgb/block0/bn0/scale"]), dtype=np.uint8)})), 5,
                 "checkpoint {ckpt}: tensor rgb/block0/bn0/scale is uint8, the branch float32",
                 id="tensor-of-another-dtype"),
    *[pytest.param(_ckpt_records(lambda header, _, roles=roles: header.update(
                       role_modalities=roles)), 5,
                   f"checkpoint {{ckpt}}: role_modalities names no modality of role {missing}",
                   id=f"role-without-modality-{missing}")
      for roles, missing in (({"rgb": "color"}, "depth"), ({"depth": "height"}, "rgb"))],
    pytest.param(_overflowing, 4, "checkpoint {ckpt}: non-finite values produced by conv2d",
                 id="overflowing-forward"),
]


@pytest.mark.parametrize("damage, code, error", CHECKPOINT_DEFECTS)
@pytest.mark.parametrize("command", ["eval", "infer", "eval-b"])
def test_checkpoint_defect_writes_nothing(trained, tmp_path, capsys, command, damage, code,
                                          error):
    """A defective copy of the trained run's stage-4 checkpoint exits 5, or
    4 for a forward that overflows, under eval and infer, and as eval's
    --checkpoint-b beside the intact one, names the defect and the copy
    (not the intact checkpoint), and leaves nothing under --out (nor
    infer's --png)."""
    _, out = trained
    ckpt, intact = tmp_path / "bad.ckpt", out / "checkpoint_stage4.ckpt"
    damage(intact, ckpt)
    dest = tmp_path / "o"
    if command == "infer":
        args = ["infer", "--scene", str(out / "dataset" / "scenes" / "scene_005"),
                "--out", str(dest / "m.mtns"), "--png", str(dest / "m.png"),
                "--checkpoint", str(ckpt)]
    else:
        args = ["eval", "--manifest", str(out / "dataset" / "manifest.json"),
                "--out", str(dest), "--checkpoint"]
        args += [str(intact), "--checkpoint-b", str(ckpt)] if command == "eval-b" else [str(ckpt)]
    assert str(intact) not in refuses(args, code, capsys, re.escape(error.format(ckpt=ckpt)), dest)


def test_only_data_generation_loads_scipy(trained, tmp_path):
    """eval and infer import no scipy; gen-data does, for `synthetic`."""
    _, out = trained
    env = {**os.environ, "PYTHONPATH": str(Path(model_mod.__file__).parents[1])}
    ckpt, dataset = str(out / "checkpoint_stage4.ckpt"), out / "dataset"

    def loads_scipy(*argv) -> bool:
        code = ("import sys; from hallucinet.cli import main; code = main(sys.argv[1:]); "
                "print('scipy' in sys.modules); sys.exit(code)")
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, check=True)
        return run.stdout.splitlines()[-1] == "True"

    assert not loads_scipy("eval", "--checkpoint", ckpt, "--manifest",
                           str(dataset / "manifest.json"), "--out", str(tmp_path / "eval"))
    assert not loads_scipy("infer", "--checkpoint", ckpt, "--scene",
                           str(dataset / "scenes" / "scene_005"), "--out", str(tmp_path / "m.mtns"))
    assert loads_scipy("gen-data", "--config", write_config(tmp_path, TINY_TRAIN),
                       "--out", str(tmp_path / "data"))


class TestThreadCap:
    def test_cap_applied_through_openblas(self, monkeypatch, capsys):
        import hallucinet.parallel as parallel

        symbols = parallel._openblas_symbols()
        if not symbols:
            pytest.skip("numpy has loaded no OpenBLAS")
        saved = [get() for get, _ in symbols]
        monkeypatch.setenv("HALLUCINET_THREADS", "1")
        try:
            for _, put in symbols:
                put(2)
            assert main(["grad-check", "--points", "1"]) == 0
            assert [get() for get, _ in symbols] == [1] * len(symbols)
        finally:
            for (_, put), n in zip(symbols, saved):
                put(n)
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["two", "0", "-1", "1.5"])
    def test_bad_cap_exits_two(self, monkeypatch, cap):
        import hallucinet.parallel as parallel

        applied = []  # a spy OpenBLAS of two threads that records each count it is set to
        monkeypatch.setattr(parallel, "_openblas_symbols", lambda: [(lambda: 2, applied.append)])
        monkeypatch.setenv("HALLUCINET_THREADS", cap)
        assert main(["grad-check", "--points", "1"]) == 2
        assert applied == []

    def test_without_openblas_warns(self, monkeypatch, capsys):
        import os

        import hallucinet.parallel as parallel

        monkeypatch.setattr(parallel, "_openblas_symbols", lambda: [])
        monkeypatch.setenv("HALLUCINET_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["grad-check", "--points", "1"]) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if "warning" in l]
        assert len(warnings) == 1 and "HALLUCINET_THREADS" in warnings[0]
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestGradCheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["grad-check", "--points", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for op in ("conv2d", "transposed_conv2d", "maxpool2", "batchnorm", "relu",
                   "sigmoid", "channel_softmax", "weighted_cross_entropy",
                   "hallucination_loss", "composite_loss_single",
                   "composite_loss_multi", "batchnorm_infer", "transposed_conv2d_x8"):
            assert sum(1 for l in lines if l.startswith(f"{op} ")) == 1
        assert lines[-1] == "all gradients verified (13 ops, 1 points each)"

    def test_corrupted_gradient_exits_nonzero(self):
        assert main(["grad-check", "--points", "1",
                     "--self-test-corrupt", "conv2d"]) == 1

    @pytest.mark.parametrize("points", ["0", "-3"])
    @pytest.mark.parametrize("corrupt", [[], ["--self-test-corrupt", "conv2d"]])
    def test_points_below_one_exit_two(self, capsys, points, corrupt):
        assert main(["grad-check", "--points", points, *corrupt]) == 2
        assert "at least 1 point" in capsys.readouterr().err
