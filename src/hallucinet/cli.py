"""Batch command-line surface: gen-data, train, eval, infer, grad-check.

All commands take JSON configuration with strict (unknown keys rejected)
schemas, write the fully resolved config next to their artifacts, and
map failures onto stable exit codes:
  2 invalid config, 3 I/O failure, 4 training divergence,
  5 checkpoint/manifest mismatch, 6 missing modality.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_MISMATCH = 5
EXIT_MISSING_MODALITY = 6


class ConfigError(ValueError):
    pass


_SYNTH_DEFAULTS = {
    "seed": 0,
    "scene_count": 30,
    "size": 256,
    "class_count": 4,
    "rare_fraction": 0.015,
    "include_ir": False,
    "train_scenes": None,
    "val_scenes": None,
    "color_noise": 0.08,
    "pair_noise": 0.08,
    "texture_fraction": 1.0,
    "ir_noise": 0.07,
    "availability": {},
}

DEFAULT_CONFIG = {
    "data": {"manifest": None, "synthetic": None},
    "model": {
        "blocks": [[32, 2], [64, 2], [128, 2], [256, 2]],
        "first_conv_stride": 2,
        "tap_depth": 3,
    },
    "objective": {"mfb": True, "gamma_multiplier": 10.0, "gamma_sample_batches": 1},
    "train": {
        "mode": "single",
        "batch_size": 4,
        "patch_size": 256,
        "overlap": 0.5,
        "flips": True,
        "rotations": True,
        "stage1_steps": 300,
        "stage4_steps": 300,
        "baseline_steps": None,
        "lr_stage1": 1e-3,
        "lr_stage4": 1e-4,
        "clip_threshold": 1.0,
        "seed": 0,
        "hallucinate": None,
    },
}

# dict-valued keys whose sub-keys are free-form
_OPEN_KEYS = {"availability"}


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"section {path or 'root'} must be a JSON object")
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {path + key!r}")
        if isinstance(defaults[key], dict) and key not in _OPEN_KEYS and value is not None:
            out[key] = _merge(defaults[key], value, path + key + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(doc: dict) -> dict:
    resolved = _merge(DEFAULT_CONFIG, doc)
    synth = doc.get("data", {}).get("synthetic")
    if synth is not None:
        resolved["data"]["synthetic"] = _merge(_SYNTH_DEFAULTS, synth, "data.synthetic.")
    return resolved


def load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(doc)


def _persist_resolved(config: dict, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(json.dumps(config, indent=2) + "\n")


def _synth_config(block: dict):
    from .synthetic import SyntheticConfig

    kwargs = {k: v for k, v in block.items() if k != "seed"}
    return int(block["seed"]), SyntheticConfig(**kwargs)


def _model_config(config: dict, class_count: int):
    from .model import BranchConfig

    m = config["model"]
    return BranchConfig(class_count=class_count,
                        blocks=tuple(tuple(b) for b in m["blocks"]),
                        first_conv_stride=int(m["first_conv_stride"]),
                        tap_depth=int(m["tap_depth"]))


def _train_config(config: dict):
    from .data import PatchSpec
    from .losses import GammaPolicy
    from .train import TrainConfig

    t = config["train"]
    o = config["objective"]
    patch = PatchSpec(size=int(t["patch_size"]), overlap=float(t["overlap"]),
                      flips=bool(t["flips"]), rotations=bool(t["rotations"]))
    return TrainConfig(
        mode=t["mode"], batch_size=int(t["batch_size"]), patch=patch,
        stage1_steps=int(t["stage1_steps"]), stage4_steps=int(t["stage4_steps"]),
        baseline_steps=None if t["baseline_steps"] is None else int(t["baseline_steps"]),
        lr_stage1=float(t["lr_stage1"]), lr_stage4=float(t["lr_stage4"]),
        clip_threshold=float(t["clip_threshold"]), seed=int(t["seed"]),
        mfb=bool(o["mfb"]),
        gamma=GammaPolicy(multiplier=float(o["gamma_multiplier"]),
                          sample_batches=int(o["gamma_sample_batches"])),
    )


# -- png export --------------------------------------------------------------

CLASS_COLORS = [
    (255, 255, 255), (0, 0, 255), (0, 255, 255), (0, 255, 0),
    (255, 255, 0), (255, 0, 0), (255, 0, 255), (128, 128, 128),
]


def write_png(path, rgb: np.ndarray):
    """Minimal RGB8 PNG encoder (no external imaging dependency)."""
    h, w, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[i].astype(np.uint8).tobytes() for i in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw, 9)) + chunk(b"IEND", b""))
    Path(path).write_bytes(blob)


def class_map_to_rgb(class_map: np.ndarray) -> np.ndarray:
    rgb = np.zeros((*class_map.shape, 3), dtype=np.uint8)
    for c in range(int(class_map.max()) + 1):
        rgb[class_map == c] = CLASS_COLORS[c % len(CLASS_COLORS)]
    return rgb


# -- commands ----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    from .synthetic import generate_synthetic

    config = load_config(args.config)
    if config["data"]["synthetic"] is None:
        raise ConfigError("gen-data needs a data.synthetic block")
    seed, synth = _synth_config(config["data"]["synthetic"])
    if args.seed is not None:
        seed = args.seed
        config["data"]["synthetic"]["seed"] = seed
    out = Path(args.out)
    _persist_resolved(config, out)
    manifest = generate_synthetic(seed, synth, out)
    print(f"dataset written to {out} "
          f"({sum(len(v) for v in manifest.splits.values())} scenes, "
          f"{manifest.class_count} classes)")
    return 0


def cmd_train(args) -> int:
    from .data import load_manifest
    from .synthetic import generate_synthetic
    from .train import run_protocol

    config = load_config(args.config)
    if args.seed is not None:
        config["train"]["seed"] = args.seed
    out = Path(args.out)
    _persist_resolved(config, out)

    if config["data"]["manifest"] is not None:
        manifest = load_manifest(config["data"]["manifest"])
    elif config["data"]["synthetic"] is not None:
        seed, synth = _synth_config(config["data"]["synthetic"])
        manifest = generate_synthetic(seed, synth, out / "dataset")
    else:
        raise ConfigError("data section needs a manifest path or a synthetic block")

    model_config = _model_config(config, manifest.class_count)
    bundle, _ = run_protocol(manifest, model_config, _train_config(config), out_dir=out,
                             hallucinate=config["train"]["hallucinate"])
    print(f"trained {len(bundle.branches)} branches "
          f"({', '.join(sorted(bundle.branches))}); logs and checkpoints in {out}")
    return 0


def _load_bundle_checked(path, manifest):
    from .model import load_checkpoint

    bundle = load_checkpoint(path)
    if bundle.config.class_count != manifest.class_count:
        raise MismatchError(
            f"checkpoint has {bundle.config.class_count} classes, "
            f"manifest {manifest.class_count}")
    known = {m.name for m in manifest.modalities}
    for role, mod in bundle.role_modalities.items():
        if mod not in known:
            raise MismatchError(f"checkpoint branch {role} reads unknown modality {mod!r}")
    return bundle


class MismatchError(RuntimeError):
    pass


def cmd_eval(args) -> int:
    from .data import load_manifest, write_tensor_file
    from .evaluate import evaluate, report_table, save_report
    from .model import ensemble_predict

    manifest = load_manifest(args.manifest)
    bundle = _load_bundle_checked(args.checkpoint, manifest)
    scenario = "all" if args.baseline == "full" else args.scenario
    predictor = None
    if args.baseline == "ensemble":
        if not args.checkpoint_b:
            raise ConfigError("ensemble baseline needs --checkpoint-b")
        bundle_b = _load_bundle_checked(args.checkpoint_b, manifest)

        def predictor(inputs, availability):
            return ensemble_predict(bundle, bundle_b, inputs, availability)

    report, conf = evaluate(bundle, manifest, args.split, scenario,
                            tile=args.tile, halo=args.halo, predictor=predictor)
    report.mode = f"scenario={scenario} baseline={args.baseline}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_report(report, out / "report.json")
    write_tensor_file(out / "confusion.mtns", conf.counts.astype(np.float32))
    print(report_table(report))
    print(f"report written to {out / 'report.json'}")
    return 0


def _parse_availability(text: str | None) -> dict[str, bool]:
    flags: dict[str, bool] = {}
    if not text:
        return flags
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"bad availability flag {item!r} (want modality=true|false)")
        name, value = item.split("=", 1)
        if value.lower() not in ("true", "false"):
            raise ConfigError(f"bad availability value {value!r}")
        flags[name.strip()] = value.lower() == "true"
    return flags


def cmd_infer(args) -> int:
    from .data import read_tensor_file, write_tensor_file
    from .evaluate import plan_windows, tiled_inference
    from .model import MissingModalityError, load_checkpoint, select_branches

    bundle = load_checkpoint(args.checkpoint)
    flags = _parse_availability(args.availability)
    availability = bundle.availability_from_modalities(flags)
    selected = select_branches(bundle, availability)

    scene_dir = Path(args.scene)
    needed = sorted({bundle.input_modality(role) for role in selected})
    rasters = {}
    for mod in needed:
        path = scene_dir / f"{mod}.mtns"
        if not path.exists():
            raise MissingModalityError(f"scene lacks required modality file {path}")
        rasters[mod] = read_tensor_file(path)

    class_map = tiled_inference(bundle, rasters, availability,
                                tile=args.tile, halo=args.halo)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tensor_file(out, class_map.astype(np.uint8))
    plan = plan_windows(bundle, class_map.shape, args.tile, args.halo)
    routing = {"selected_branches": selected,
               "availability": {r: bool(v) for r, v in availability.items()},
               "windows": plan.count, "window_hw": list(plan.window), "halo": plan.halo}
    out.with_suffix(".routing.json").write_text(json.dumps(routing, indent=2) + "\n")
    if args.png:
        write_png(args.png, class_map_to_rgb(class_map))
    print(f"class map {class_map.shape} written to {out}; branches: {selected}")
    return 0


def cmd_grad_check(args) -> int:
    from .checks import run_gradcheck_suite

    results = run_gradcheck_suite(points=args.points, seed=args.seed,
                                  corrupt=args.self_test_corrupt)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max rel err {r.max_rel_error:.3e}  {status}")
        ok = ok and r.passed
    print(f"{'all gradients verified' if ok else 'gradient check FAILED'} "
          f"({len(results)} ops, {args.points} points each)")
    return 0 if ok else 1


TILE_HELP = ("window side for a scene whose forward exceeds the memory budget "
             "(default: the largest that fits); a multiple of the model's downsample "
             "factor, larger than twice the halo. A scene within the budget is one forward")
HALO_HELP = ("window overlap on each side (default and minimum: the receptive radius "
             "rounded up to the downsample factor; a smaller value is raised to it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallucinet",
        description="Multi-modal segmentation with hallucinated modalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run the staged training protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--checkpoint-b", default=None, help="second model for the ensemble baseline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", choices=["1", "2", "3", "all"], default="all")
    p.add_argument("--baseline", choices=["single", "ensemble", "hallucination", "full"],
                   default="hallucination")
    p.add_argument("--split", default="test")
    p.add_argument("--tile", type=int, default=None, help=TILE_HELP)
    p.add_argument("--halo", type=int, default=None, help=HALO_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="class map of one scene directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--availability", default=None,
                   help="comma list, e.g. height=false,ir=true")
    p.add_argument("--tile", type=int, default=None, help=TILE_HELP)
    p.add_argument("--halo", type=int, default=None, help=HALO_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--png", default=None)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("grad-check", help="finite-difference check of all ops")
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--self-test-corrupt", default=None,
                   help="fault-injection negative control for one op")
    p.set_defaults(fn=cmd_grad_check)
    return parser


def _limit_threads():
    """Apply the HALLUCINET_THREADS cap to the BLAS pools numpy has loaded.

    BLAS reads thread variables from the environment only when it loads,
    which has happened by now, so the cap needs threadpoolctl; without it
    a warning says that the cap was not applied.
    """
    cap = os.environ.get("HALLUCINET_THREADS")
    if not cap:
        return
    try:
        threads = int(cap)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"HALLUCINET_THREADS must be a positive integer, got {cap!r}")
    try:
        import threadpoolctl
    except ImportError:
        print("warning: threadpoolctl is not installed; HALLUCINET_THREADS was not applied",
              file=sys.stderr)
        return
    threadpoolctl.threadpool_limits(threads)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .model import CheckpointError, MissingModalityError
    from .train import DivergenceError

    try:
        _limit_threads()
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MismatchError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except MissingModalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_MODALITY
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
