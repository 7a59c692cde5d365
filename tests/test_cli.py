"""Command-line surface: config resolution, commands, exit codes."""
import json
import re
import shutil
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from hallucinet.cli import main, resolve_config
from hallucinet.data import read_tensor_file, write_tensor_file
from hallucinet.model import BranchConfig
from hallucinet.synthetic import SyntheticConfig
from hallucinet.train import TrainConfig

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
        "include_ir": True, "train_scenes": 8, "val_scenes": 2, "color_noise": 0.1,
        "pair_noise": 0.05, "texture_fraction": 0.5, "pair_crossover": 0.2,
        "shadow_length": 3, "shadow_strength": 0.2, "ir_noise": 0.05,
        "road_width": [0.05, 0.1], "building_side": [0.1, 0.2], "rare_radius": [5.0, 8.0],
        "availability": {"height": 0.5}},
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
        ("data.synthetic", {"road_width": [0.05]}, "data.synthetic.road_width"),
        ("train", {"baseline_steps": 1.0}, "train.baseline_steps"),
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


def _stray_label_copy(dataset: Path, dest: Path) -> Path:
    """A copy of `dataset` whose scenes each have one pixel labelled 9,
    neither a class id of its 4 classes nor the ignore label."""
    shutil.copytree(dataset, dest)
    for path in (dest / "scenes").rglob("labels.mtns"):
        labels = read_tensor_file(path).copy()
        labels[0, 0] = 9
        write_tensor_file(path, labels)
    return dest / "manifest.json"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    cfg = write_config(tmp, TINY_TRAIN)
    out = tmp / "run"
    code = main(["train", "--config", cfg, "--out", str(out)])
    assert code == 0
    return tmp, out


class TestTrain:
    def test_single_mode_artifacts(self, trained):
        _, out = trained
        assert (out / "checkpoint_stage4.ckpt").exists()
        assert (out / "train_log.jsonl").exists()
        assert (out / "resolved_config.json").exists()
        from hallucinet.model import load_checkpoint

        bundle = load_checkpoint(out / "checkpoint_stage4.ckpt")
        assert len(bundle.branches) == 3

    def test_multi_mode_five_branches(self, tmp_path):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["data"]["synthetic"]["include_ir"] = True
        doc["train"]["mode"] = "multi"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        from hallucinet.model import load_checkpoint

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

    def test_hallucinate_always_available_exit_two(self, tmp_path):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["train"]["hallucinate"] = "color"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "checkpoint_stage1.ckpt").exists()

    def test_hallucinate_with_multi_mode_exit_two(self, tmp_path):
        doc = json.loads(json.dumps(TINY_TRAIN))
        doc["data"]["synthetic"]["include_ir"] = True
        doc["train"]["mode"] = "multi"
        doc["train"]["hallucinate"] = "ir"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "checkpoint_stage1.ckpt").exists()

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

    def test_stray_label_exit_two(self, trained, tmp_path, capsys):
        _, out = trained
        manifest = _stray_label_copy(out / "dataset", tmp_path / "ds")
        doc = {**TINY_TRAIN, "data": {"manifest": str(manifest)}}
        run = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, doc),
                     "--out", str(run)]) == 2
        assert re.search(r"scene scene_\d+: label 9 ", capsys.readouterr().err)
        assert not (run / "checkpoint_stage1.ckpt").exists()

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
        assert r1["mode"] != r2["mode"]
        assert (e1 / "confusion.mtns").exists()

    def test_report_regeneration_from_confusion(self, trained, tmp_path):
        from hallucinet.evaluate import ConfusionMatrix, metrics

        _, out = trained
        manifest = out / "dataset" / "manifest.json"
        e = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--manifest", str(manifest), "--scenario", "1",
                     "--out", str(e)]) == 0
        doc = json.loads((e / "report.json").read_text())
        conf = ConfusionMatrix(read_tensor_file(e / "confusion.mtns").astype(np.int64))
        names = json.loads((manifest).read_text())["class_names"]
        regenerated = metrics(conf, mode=doc["mode"], class_names=names)
        assert regenerated.overall_accuracy == pytest.approx(doc["overall_accuracy"])
        assert regenerated.f1 == pytest.approx(doc["per_class"]["f1"])

    def test_ensemble_baseline_needs_second_checkpoint(self, trained, tmp_path):
        _, out = trained
        code = main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--manifest", str(out / "dataset" / "manifest.json"),
                     "--baseline", "ensemble", "--out", str(tmp_path / "e")])
        assert code == 2

    def test_second_checkpoint_needs_ensemble_baseline(self, trained, tmp_path, capsys):
        _, out = trained
        code = main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--checkpoint-b", str(tmp_path / "absent.ckpt"),
                     "--manifest", str(out / "dataset" / "manifest.json"),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert "--checkpoint-b" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_malformed_manifest_exit_two(self, trained, tmp_path, capsys):
        _, out = trained
        doc = json.loads((out / "dataset" / "manifest.json").read_text())
        doc["modalities"][1]["channels"] = None
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--manifest", str(manifest), "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "modalities[1].channels" in err

    def test_stray_label_exit_two(self, trained, tmp_path, capsys):
        _, out = trained
        manifest = _stray_label_copy(out / "dataset", tmp_path / "ds")
        code = main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--manifest", str(manifest), "--out", str(tmp_path / "e")])
        assert code == 2
        assert re.search(r"scene scene_\d+: label 9 ", capsys.readouterr().err)

    def test_ensemble_baseline_runs(self, trained, tmp_path):
        _, out = trained
        ckpt = str(out / "checkpoint_stage4.ckpt")
        code = main(["eval", "--checkpoint", ckpt, "--checkpoint-b", ckpt,
                     "--manifest", str(out / "dataset" / "manifest.json"),
                     "--baseline", "ensemble", "--out", str(tmp_path / "e")])
        assert code == 0

    def test_unavailable_raster_may_be_absent(self, trained, tmp_path):
        """A test scene flagged without height needs no height raster; a
        scene flagged with it still does (exit 3)."""
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
        assert main(args + ["--scenario", "1", "--out", str(tmp_path / "e3")]) == 3

    def test_mismatched_manifest_exit_five(self, trained, tmp_path):
        _, out = trained
        other = {"data": {"synthetic": {"seed": 1, "scene_count": 4, "size": 96,
                                        "class_count": 5, "train_scenes": 2,
                                        "val_scenes": 1}}}
        cfg = write_config(tmp_path, other)
        ds = tmp_path / "ds5"
        assert main(["gen-data", "--config", cfg, "--out", str(ds)]) == 0
        code = main(["eval", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--manifest", str(ds / "manifest.json"),
                     "--out", str(tmp_path / "e")])
        assert code == 5


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

    @pytest.mark.parametrize("flags, named", [("heigth=false", "heigth"),
                                              ("color=false", "color"),
                                              ("height=false,ir=true,x=true", "ir, x")])
    def test_unknown_availability_names_exit_two(self, trained, tmp_path, capsys, flags, named):
        _, out = trained
        dest = tmp_path / "map.mtns"
        code = main(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--scene", str(out / "dataset" / "scenes" / "scene_005"),
                     "--availability", flags, "--out", str(dest)])
        assert code == 2
        assert f"--availability names {named}, not optional" in capsys.readouterr().err
        assert not dest.exists()

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
        code = main(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--scene", str(scene), "--availability", "height=true",
                     "--out", str(tmp_path / "m.mtns")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{small} 64x64" in err and "96x96" in err
        assert not (tmp_path / "m.mtns").exists()

    def test_missing_modality_exit_six(self, trained, tmp_path):
        _, out = trained
        scene_src = out / "dataset" / "scenes" / "scene_005"
        broken = tmp_path / "scene"
        broken.mkdir()
        (broken / "height.mtns").write_bytes((scene_src / "height.mtns").read_bytes())
        code = main(["infer", "--checkpoint", str(out / "checkpoint_stage4.ckpt"),
                     "--scene", str(broken), "--out", str(tmp_path / "m.mtns")])
        assert code == 6


def _flip_middle_byte(blob: bytes) -> bytes:
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("damage", ["truncate", "trailing", "header", "flip"])
    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_exit_five(self, trained, tmp_path, command, damage):
        _, out = trained
        blob = (out / "checkpoint_stage4.ckpt").read_bytes()
        blob = {"truncate": blob[:len(blob) // 2],
                "trailing": blob + b"junk",
                "header": blob[:8] + b"!" + blob[9:],
                "flip": _flip_middle_byte(blob)}[damage]
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob)
        if command == "eval":
            args = ["eval", "--manifest", str(out / "dataset" / "manifest.json")]
        else:
            args = ["infer", "--scene", str(out / "dataset" / "scenes" / "scene_005")]
        code = main(args + ["--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == 5


    def test_unused_tensor_exit_five(self, trained, tmp_path):
        import hallucinet.model as model_mod

        _, out = trained
        header, tensors = model_mod._read_checkpoint(
            (out / "checkpoint_stage4.ckpt").read_bytes())
        tensors["rgb/block0/conv0/bias"] = np.zeros(6, dtype=np.float32)
        header["tensors"].append("rgb/block0/conv0/bias")
        ckpt = tmp_path / "stray.ckpt"
        model_mod._write_checkpoint(ckpt, header, tensors)
        code = main(["eval", "--manifest", str(out / "dataset" / "manifest.json"),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == 5


class TestThreadCap:
    def _fake_threadpoolctl(self, monkeypatch):
        import sys
        import types

        calls = []
        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = calls.append
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        return calls

    def test_cap_applied(self, monkeypatch):
        calls = self._fake_threadpoolctl(monkeypatch)
        monkeypatch.setenv("HALLUCINET_THREADS", "2")
        assert main(["grad-check", "--points", "1"]) == 0
        assert calls == [2]

    @pytest.mark.parametrize("cap", ["two", "0", "-1", "1.5"])
    def test_bad_cap_exits_two(self, monkeypatch, cap):
        calls = self._fake_threadpoolctl(monkeypatch)
        monkeypatch.setenv("HALLUCINET_THREADS", cap)
        assert main(["grad-check", "--points", "1"]) == 2
        assert calls == []

    def test_missing_threadpoolctl_warns(self, monkeypatch, capsys):
        import os
        import sys

        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
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
                   "composite_loss_multi", "batchnorm_relu", "batchnorm_infer"):
            assert sum(1 for l in lines if l.startswith(f"{op} ")) == 1

    def test_corrupted_gradient_exits_nonzero(self):
        assert main(["grad-check", "--points", "1",
                     "--self-test-corrupt", "conv2d"]) == 1
