"""Batch command-line surface: gen-data, train, eval, infer, grad-check.

gen-data and train read a JSON config whose schema is the config
dataclasses themselves (see RunConfig) and write the config that ran
next to their artifacts. Only the commands that read `data.synthetic`
import `synthetic`, and with it scipy. Failures map onto stable exit codes:
  2 invalid config, 3 I/O failure, 4 non-finite values: a diverged
  training, or a forward that overflows, 5 checkpoint/manifest mismatch,
  6 missing modality.
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
from typing import TYPE_CHECKING

import numpy as np

from .checks import run_gradcheck_suite
from .config import ConfigError, build, check_keys, keywords, typed
from .data import atomic_write, load_manifest, read_rasters, write_json, write_tensor_file
from .engine import NonFiniteError
from .evaluate import evaluate, plan_windows, report_table, tiled_inference
from .model import (
    BranchConfig,
    CheckpointError,
    MissingModalityError,
    ensemble_predict,
    load_checkpoint,
    select_branches,
)
from .parallel import limit_blas_threads
from .train import DivergenceError, TrainConfig, check_protocol, run_protocol

if TYPE_CHECKING:  # imported where it is used, since it loads scipy
    from .synthetic import SyntheticConfig

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_MISMATCH = 5
EXIT_MISSING_MODALITY = 6


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
        from .synthetic import SyntheticConfig

        synth = dict(typed(dict, synth, "data.synthetic"))
        seed = typed(int, synth.pop("seed", 0), "data.synthetic.seed")
        if seed < 0:
            raise ConfigError(f"data.synthetic.seed must be non-negative, got {seed}")
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
    from .synthetic import generate_synthetic

    out = Path(args.out)
    config.save(config.branch_config(config.synthetic.class_count), out)
    manifest = generate_synthetic(config.seed, config.synthetic, out)
    print(f"dataset written to {out} "
          f"({sum(len(v) for v in manifest.splits.values())} scenes, "
          f"{manifest.class_count} classes)")
    return 0


def cmd_train(args) -> int:
    """Train on a manifest or a synthetic dataset; every refusal of the
    config or the train split comes before anything is written under
    --out, and resolved_config.json is written with the log at the end."""
    config = load_config(args.config)
    out = Path(args.out)
    if config.manifest is not None:
        manifest = load_manifest(config.manifest)
        model_config = config.branch_config(manifest.class_count)
    elif config.synthetic is not None:
        from .synthetic import generate_synthetic

        model_config = config.branch_config(config.synthetic.class_count)
        check_protocol(config.synthetic.modalities, model_config, config.train)
        patch, size = config.train.patch.size, config.synthetic.size
        if patch > size:
            raise ConfigError(f"train.patch.size {patch} is larger than the scenes of "
                              f"data.synthetic.size {size} ({size}x{size})")
        manifest = generate_synthetic(config.seed, config.synthetic, out / "dataset")
    else:
        raise ConfigError("data section needs a manifest path or a synthetic block")

    bundle, _ = run_protocol(manifest, model_config, config.train, out_dir=out)
    config.save(model_config, out)
    print(f"trained {len(bundle.branches)} branches "
          f"({', '.join(sorted(bundle.branches))}); logs and checkpoints in {out}")
    return 0


def _load_bundle_checked(path, manifest):
    bundle = load_checkpoint(path)
    if bundle.config.class_count != manifest.class_count:
        raise CheckpointError(f"checkpoint {path}: {bundle.config.class_count} classes, "
                              f"the manifest has {manifest.class_count}")
    channels = {m.name: m.channels for m in manifest.modalities}
    for role, mod in bundle.role_modalities.items():
        if mod not in channels:
            raise CheckpointError(f"checkpoint {path}: branch {role} reads unknown modality "
                                  f"{mod!r}")
    for role, branch in bundle.branches.items():
        mod = bundle.input_modality(role)
        if branch.input_channels != channels[mod]:
            raise CheckpointError(f"checkpoint {path}: branch {role} takes "
                                  f"{branch.input_channels} channels of {mod!r}, "
                                  f"the manifest gives {channels[mod]}")
    return bundle


def _roster(bundle) -> str:
    """The branches of a bundle, each with the modality it reads."""
    return ", ".join(f"{role} ({bundle.input_modality(role)})" for role in sorted(bundle.branches))


def cmd_eval(args) -> int:
    """Score one checkpoint, or with --checkpoint-b the ensemble of two of
    one roster; report.json's mode names the scenario and their stages."""
    manifest = load_manifest(args.manifest)
    bundle = _load_bundle_checked(args.checkpoint, manifest)
    predictor = None
    if args.checkpoint_b is not None:
        bundle_b = _load_bundle_checked(args.checkpoint_b, manifest)
        if _roster(bundle) != _roster(bundle_b):
            raise CheckpointError(f"an ensemble needs one roster: {args.checkpoint} has branches "
                                f"{_roster(bundle)}; {args.checkpoint_b} has {_roster(bundle_b)}")

        def predictor(inputs, availability):
            return ensemble_predict(bundle, bundle_b, inputs, availability)

    report, conf = evaluate(bundle, manifest, args.split, args.scenario, predictor=predictor)
    if args.checkpoint_b is not None:
        report["mode"] += f" ensemble={bundle_b.stage}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report)
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
    if bundle.config.class_count > 256:
        raise ConfigError(f"infer writes class ids as uint8; the checkpoint has "
                          f"{bundle.config.class_count} classes, more than 256")
    flags = _parse_availability(args.availability)
    optional = [bundle.role_modalities[role] for role in bundle.optional_roles()]
    unknown = sorted(set(flags) - set(optional))
    if unknown:
        raise ConfigError(f"--availability names {', '.join(unknown)}, not optional "
                          f"modalities of this checkpoint ({', '.join(optional) or 'none'})")
    availability = bundle.availability_from_modalities(flags)
    selected = select_branches(bundle, availability)

    rasters = read_rasters(args.scene, sorted({bundle.input_modality(role) for role in selected}))
    class_map = tiled_inference(bundle, rasters, availability)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.png:
        Path(args.png).parent.mkdir(parents=True, exist_ok=True)
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
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run the staged training protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--checkpoint-b", default=None,
                   help="second model of the same roster: evaluate the ensemble of both")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", choices=["1", "2", "all"], default="all")
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
    """Apply the HALLUCINET_THREADS cap to the BLAS numpy has loaded, through
    the thread control `parallel` owns; warn if there is none."""
    cap = os.environ.get("HALLUCINET_THREADS")
    if not cap:
        return
    try:
        threads = int(cap)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"HALLUCINET_THREADS must be a positive integer, got {cap!r}")
    if not limit_blas_threads(threads):
        print("warning: no OpenBLAS thread control is available; "
              "HALLUCINET_THREADS was not applied", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _limit_threads()
        return args.fn(args)
    except Exception as exc:
        # first match wins: CheckpointError and ConfigError are ValueErrors
        for kinds, code in ((CheckpointError, EXIT_MISMATCH),
                            ((DivergenceError, NonFiniteError), EXIT_DIVERGENCE),
                            (MissingModalityError, EXIT_MISSING_MODALITY),
                            ((ValueError, KeyError), EXIT_CONFIG),
                            (OSError, EXIT_IO)):
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
