"""Batch command-line surface: gen-data, train, eval, infer, grad-check.

gen-data and train read a JSON config whose schema is the config
dataclasses themselves (see RunConfig) and write the config that ran
next to their artifacts. Failures map onto stable exit codes:
  2 invalid config, 3 I/O failure, 4 training divergence,
  5 checkpoint/manifest mismatch, 6 missing modality.
"""
from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checks import run_gradcheck_suite
from .config import ConfigError, build, check_keys, keywords, typed
from .data import atomic_write, load_manifest, read_tensor_file, write_json, write_tensor_file
from .evaluate import evaluate, plan_windows, report_table, save_report, tiled_inference
from .model import (
    BranchConfig,
    CheckpointError,
    MissingModalityError,
    ensemble_predict,
    load_checkpoint,
    select_branches,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .train import DivergenceError, TrainConfig, run_protocol

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_MISMATCH = 5
EXIT_MISSING_MODALITY = 6


class MismatchError(RuntimeError):
    pass


@dataclass
class RunConfig:
    """A config file, each section built into the object it configures.

    Layout: `data.manifest` (a path) or `data.synthetic` (`seed` and the
    fields of SyntheticConfig); `model`, the fields of BranchConfig but
    `class_count`, which the dataset sets; `train`, the fields of
    TrainConfig.
    """
    manifest: str | None
    seed: int
    synthetic: SyntheticConfig | None
    model: dict  # BranchConfig keywords
    train: TrainConfig

    def branch_config(self, class_count: int) -> BranchConfig:
        return BranchConfig(class_count=class_count, **self.model)

    def save(self, model: BranchConfig, out_dir: Path):
        """Write resolved_config.json: the config file that builds these
        objects again, with every default written out."""
        synth = None if self.synthetic is None else {"seed": self.seed, **asdict(self.synthetic)}
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "resolved_config.json",
                   {"data": {"manifest": self.manifest, "synthetic": synth},
                    "model": {k: v for k, v in asdict(model).items() if k != "class_count"},
                    "train": asdict(self.train)})


def resolve_config(doc) -> RunConfig:
    check_keys(doc, "", ("data", "model", "train"))
    data = check_keys(doc.get("data", {}), "data", ("manifest", "synthetic"))
    seed, synth = 0, data.get("synthetic")
    if synth is not None:
        synth = dict(typed(dict, synth, "data.synthetic"))
        seed = typed(int, synth.pop("seed", 0), "data.synthetic.seed")
        synth = build(SyntheticConfig, synth, "data.synthetic")
    return RunConfig(manifest=typed(str | None, data.get("manifest"), "data.manifest"),
                     seed=seed, synthetic=synth,
                     model=keywords(BranchConfig, doc.get("model", {}), "model",
                                    given=("class_count",)),
                     train=build(TrainConfig, doc.get("train", {}), "train"))


def _reject_constant(name: str):
    raise ConfigError(f"config is not valid JSON: {name} is not a number")


def load_config(path) -> RunConfig:
    """The RunConfig of a JSON file; NaN and the infinities, which Python's
    json accepts, are rejected like any other invalid JSON."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(doc)


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
    with atomic_write(path, "wb") as fh:
        fh.write(blob)


def class_map_to_rgb(class_map: np.ndarray) -> np.ndarray:
    rgb = np.zeros((*class_map.shape, 3), dtype=np.uint8)
    for c in range(int(class_map.max()) + 1):
        rgb[class_map == c] = CLASS_COLORS[c % len(CLASS_COLORS)]
    return rgb


# -- commands ----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    if config.synthetic is None:
        raise ConfigError("gen-data needs a data.synthetic block")
    if args.seed is not None:
        config.seed = args.seed
    out = Path(args.out)
    config.save(config.branch_config(config.synthetic.class_count), out)
    manifest = generate_synthetic(config.seed, config.synthetic, out)
    print(f"dataset written to {out} "
          f"({sum(len(v) for v in manifest.splits.values())} scenes, "
          f"{manifest.class_count} classes)")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.train.seed = args.seed
    manifest = None
    if config.manifest is not None:
        manifest = load_manifest(config.manifest)
        model_config = config.branch_config(manifest.class_count)
    elif config.synthetic is not None:
        model_config = config.branch_config(config.synthetic.class_count)
    else:
        raise ConfigError("data section needs a manifest path or a synthetic block")
    out = Path(args.out)
    config.save(model_config, out)
    if manifest is None:
        manifest = generate_synthetic(config.seed, config.synthetic, out / "dataset")

    bundle, _ = run_protocol(manifest, model_config, config.train, out_dir=out)
    print(f"trained {len(bundle.branches)} branches "
          f"({', '.join(sorted(bundle.branches))}); logs and checkpoints in {out}")
    return 0


def _load_bundle_checked(path, manifest):
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


def cmd_eval(args) -> int:
    if (args.baseline == "ensemble") != (args.checkpoint_b is not None):
        raise ConfigError("--baseline ensemble and --checkpoint-b go together")
    manifest = load_manifest(args.manifest)
    bundle = _load_bundle_checked(args.checkpoint, manifest)
    scenario = "all" if args.baseline == "full" else args.scenario
    predictor = None
    if args.baseline == "ensemble":
        bundle_b = _load_bundle_checked(args.checkpoint_b, manifest)

        def predictor(inputs, availability):
            return ensemble_predict(bundle, bundle_b, inputs, availability)

    report, conf = evaluate(bundle, manifest, args.split, scenario, predictor=predictor)
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
    bundle = load_checkpoint(args.checkpoint)
    flags = _parse_availability(args.availability)
    optional = [bundle.role_modalities[role] for role in bundle.optional_roles()]
    unknown = sorted(set(flags) - set(optional))
    if unknown:
        raise ConfigError(f"--availability names {', '.join(unknown)}, not optional "
                          f"modalities of this checkpoint ({', '.join(optional) or 'none'})")
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

    class_map = tiled_inference(bundle, rasters, availability)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tensor_file(out, class_map.astype(np.uint8))
    plan = plan_windows(bundle, class_map.shape)
    routing = {"selected_branches": selected,
               "availability": {r: bool(v) for r, v in availability.items()},
               "windows": plan.count, "window_hw": list(plan.window), "halo": plan.halo}
    write_json(out.with_suffix(".routing.json"), routing)
    if args.png:
        write_png(args.png, class_map_to_rgb(class_map))
    print(f"class map {class_map.shape} written to {out}; branches: {selected}")
    return 0


def cmd_grad_check(args) -> int:
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
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="class map of one scene directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--availability", default=None,
                   help="comma list, e.g. height=false,ir=true")
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
    args = build_parser().parse_args(argv)
    try:
        _limit_threads()
        return args.fn(args)
    except Exception as exc:
        # first match wins: CheckpointError and ConfigError are ValueErrors
        for kinds, code in (((MismatchError, CheckpointError), EXIT_MISMATCH),
                            (DivergenceError, EXIT_DIVERGENCE),
                            (MissingModalityError, EXIT_MISSING_MODALITY),
                            ((ValueError, KeyError), EXIT_CONFIG),
                            (OSError, EXIT_IO)):
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
