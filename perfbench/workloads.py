"""The three benchmark workloads: set-up, timed run, output checks, metrics.

Every workload drives the library entry points that `hallucinet train`
and `hallucinet eval` call. The seed generates the synthetic data (and,
on eval-scenes, the bundle weights); the program receives only the
generated files. The amount of work is a fixed function of `--seconds`
and the geometry, so a traced and an untraced run of one seed do
identical work and the counts repeat exactly.
"""
from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hallucinet.data as data
import hallucinet.evaluate as evaluate
import hallucinet.model as model
import hallucinet.synthetic as synthetic
import hallucinet.train as train
from probes import OP_GROUPS, Tracer, install_boundary_probes, install_layer_probes

ROLES = ("rgb", "depth", "hal_depth", "ir", "hal_ir")


@dataclass(frozen=True)
class Geometry:
    blocks: tuple
    tap_depth: int
    class_count: int
    batch: int
    patch: int
    tile: int
    halo: int
    train_size: int       # side of the synthetic training scenes
    eval_size: int        # side of the synthetic test scenes
    train_scenes: int
    eval_test_scenes: int


# The shipped defaults (model and train sections of cli.DEFAULT_CONFIG),
# and a tiny geometry for the smoke test (the test suite's TINY_BLOCKS).
GEOMETRIES = {
    "default": Geometry(blocks=((32, 2), (64, 2), (128, 2), (256, 2)), tap_depth=3,
                        class_count=4, batch=4, patch=256, tile=256, halo=64,
                        train_size=256, eval_size=512, train_scenes=16,
                        eval_test_scenes=3),
    "tiny": Geometry(blocks=((8, 2), (16, 2), (24, 2)), tap_depth=2, class_count=4,
                     batch=2, patch=64, tile=64, halo=16, train_size=128, eval_size=128,
                     train_scenes=3, eval_test_scenes=2),
}

# Steps (stage 1 per branch, stage 4) and evaluate passes per run are a
# pure function of --seconds, sized from the step and scene times of the
# default geometry on a 2-core Xeon (OpenBLAS 0.3.31, 2 threads) so that a
# whole run, set-up and checks included, takes about --seconds (30 to 35 s
# at --seconds 30). Stage 4 gets most of it, since that is where the
# paper's protocol spends its time. Comparing two commits takes some
# twenty runs of each workload per commit, so a run is kept short.
_SECONDS_PER_UNIT = {"train-single": (15.0, 4.3), "train-multi": (30.0, 7.5),
                     "eval-scenes": 6.0}

# The first stage-4 step allocates gradients and Adam state for every
# branch, and the second still holds the first step's graph while it
# builds its own (the loop drops the old breakdown only on reassignment),
# so both fault in fresh memory and read 20-40% slower than the steps
# after them. A 300-step run pays this once; step medians leave them out
# and report them as stage4_warmup_s.
STAGE4_WARMUP = 2

# Set-up runs this many times in every run, traced or not, into fresh
# directories; setup_s is the median and setup_first_s the first (cold) one.
SETUP_REPEATS = 3


def work_plan(workload: str, seconds: int) -> dict:
    """Step and pass counts for one run."""
    if workload == "eval-scenes":
        return {"passes": max(1, round(seconds / _SECONDS_PER_UNIT[workload]))}
    per_stage1, per_stage4 = _SECONDS_PER_UNIT[workload]
    return {"stage1_steps": max(1, round(seconds / per_stage1)),
            "stage4_steps": max(STAGE4_WARMUP + 1, round(seconds / per_stage4))}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _digest(arr: np.ndarray) -> tuple:
    """Shape and a hash of the float32 bytes: bit identity without a copy kept."""
    buf = np.ascontiguousarray(arr, dtype=np.float32)
    return buf.shape, hashlib.blake2b(buf.data).digest()


def non_eroded_count(labels: np.ndarray, radius: int = 3, ignore: int = 255) -> int:
    """Pixels evaluate must count: no other label within `radius`, not ignored.

    Written from the definition, independently of evaluate's erosion.
    """
    h, w = labels.shape
    padded = np.pad(labels.astype(np.int32), radius, constant_values=-1)
    keep = labels != ignore
    for du in range(-radius, radius + 1):
        for dv in range(-radius, radius + 1):
            if du * du + dv * dv > radius * radius:
                continue
            other = padded[radius + du:radius + du + h, radius + dv:radius + dv + w]
            keep &= (other == labels) | (other == -1)
    return int(keep.sum())


class Run:
    """One workload process: set-up, timed work, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 geometry: str, work_dir: Path, corrupt: str | None = None):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.geo = GEOMETRIES[geometry]
        self.plan = work_plan(workload, seconds)
        self.work_dir = work_dir
        self.corrupt = corrupt
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.snapshots: list[tuple[Path, list[str], dict]] = []
        self.predictions: list = []        # (rasters, availability, pred), first pass
        self.setup_times: list[float] = []

    # -- accounting ------------------------------------------------------------
    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # -- probes --------------------------------------------------------------
    def _on_save(self, bundle, path):
        params = {p.name: _digest(p.data) for role in sorted(bundle.branches)
                  for p in bundle.branches[role].parameters()}
        self.snapshots.append((Path(path), sorted(bundle.branches), params))

    def _on_tiled(self, pred, args):
        rasters, availability = args[1], args[2]
        labels_hw = next(iter(rasters.values())).shape[-2:]
        if self.corrupt == "prediction":
            pred = pred.copy()
            pred[0, 0] = self.geo.class_count
        self.check(pred.shape == labels_hw, "tiled prediction shape")
        self.check(bool(pred.size) and 0 <= int(pred.min())
                   and int(pred.max()) < self.geo.class_count,
                   "predicted class out of range")
        if self.trace and len(self.predictions) < self.geo.eval_test_scenes:
            self.predictions.append((rasters, availability, pred))
        return pred

    # -- set-up ----------------------------------------------------------------
    def _dataset(self, root: Path):
        geo = self.geo
        evaluating = self.workload == "eval-scenes"
        if evaluating:
            cfg = synthetic.SyntheticConfig(
                scene_count=2 + geo.eval_test_scenes, size=geo.eval_size,
                class_count=geo.class_count, train_scenes=1, val_scenes=1)
        else:
            cfg = synthetic.SyntheticConfig(
                scene_count=geo.train_scenes + 2, size=geo.train_size,
                class_count=geo.class_count, train_scenes=geo.train_scenes,
                val_scenes=1, include_ir=self.workload == "train-multi")
        synthetic.generate_synthetic(self.seed, cfg, root / "dataset")
        return data.load_manifest(root / "dataset" / "manifest.json")

    def model_config(self):
        geo = self.geo
        return model.BranchConfig(class_count=geo.class_count, blocks=geo.blocks,
                                  tap_depth=geo.tap_depth)

    def _bundle(self, manifest, root: Path):
        """Stage-4 roster (rgb, depth, hal_depth), saved and loaded as `eval` does."""
        mc = self.model_config()
        rgb_ch = manifest.modality_channels("color")
        rgb = model.build_branch(mc, rgb_ch, "rgb", np.random.default_rng([self.seed, 1]))
        depth = model.build_branch(mc, manifest.modality_channels("height"), "depth",
                                   np.random.default_rng([self.seed, 2]))
        hal = model.init_hallucination_from(depth, rgb_ch,
                                            np.random.default_rng([self.seed, 3]))
        bundle = model.ModelBundle(mc, {"rgb": rgb, "depth": depth, "hal_depth": hal},
                                   {"rgb": "color", "depth": "height"}, stage="stage4")
        # With the initial batchnorm statistics (mean 0, variance 1) the
        # activations shrink layer by layer and every pixel predicts one
        # class, which would hide the tiling defect tile_disagree_px counts.
        # One train-mode forward with momentum 1 on a training crop gives
        # each layer its batch statistics; the weights stay untrained.
        rasters, _ = data.load_scene(manifest, manifest.splits["train"][0].scene_id)
        crop = self.geo.tile
        for role, branch in bundle.branches.items():
            units = [u for block in branch.blocks for u in block]
            for u in units:
                u.state.momentum = 1.0
            x = rasters[bundle.input_modality(role)][None, :, :crop, :crop]
            branch.forward(x, "train")
            for u in units:
                u.state.momentum = 0.1
        path = root / "bundle.ckpt"
        model.save_checkpoint(bundle, path, "stage4")
        return model.load_checkpoint(path)

    def setup(self):
        """Synthetic generation and manifest load (plus bundle on eval-scenes)."""
        for i in range(SETUP_REPEATS):
            root = self.work_dir / f"setup{i}"
            t0 = self.tracer.clock()
            manifest = self._dataset(root)
            bundle = self._bundle(manifest, root) if self.workload == "eval-scenes" else None
            self.setup_times.append(self.tracer.clock() - t0)
        self.manifest, self.bundle = manifest, bundle

    # -- timed work --------------------------------------------------------------
    def run(self):
        evaluating = self.workload == "eval-scenes"
        if self.trace:
            install_layer_probes(self.tracer)
        install_boundary_probes(self.tracer,
                                on_save=None if evaluating else self._on_save,
                                on_tiled=self._on_tiled if evaluating else None)
        try:
            self.setup()
            if evaluating:
                self._run_eval()
            else:
                self._run_train()
        finally:
            self.tracer.uninstall()

    def _train_config(self):
        geo = self.geo
        return train.TrainConfig(
            mode="multi" if self.workload == "train-multi" else "single",
            batch_size=geo.batch, patch=data.PatchSpec(size=geo.patch),
            stage1_steps=self.plan["stage1_steps"], stage4_steps=self.plan["stage4_steps"],
            seed=self.seed)

    def _run_train(self):
        self.train_config = tc = self._train_config()
        out_dir = self.work_dir / "run"
        out_dir.mkdir(parents=True, exist_ok=True)
        protocol = train.run_protocol_multi if tc.mode == "multi" else train.run_protocol_single
        self.log = []
        t0 = self.tracer.clock()
        try:
            _, self.log = protocol(self.manifest, self.model_config(), tc, out_dir=out_dir)
        except Exception as exc:  # a failed protocol is reported, not raised
            self.failures.append(f"protocol raised {type(exc).__name__}: {exc}")
        self.protocol_wall = self.tracer.clock() - t0

    def _run_eval(self):
        self.pass_walls, self.pass_scenes = [], []
        self.confusions = []
        for _ in range(self.plan["passes"]):
            scenes_before = len(self.tracer.values["scenes"])
            t0 = self.tracer.clock()
            try:
                _, conf = evaluate.evaluate(self.bundle, self.manifest, "test", scenario="1",
                                      tile=self.geo.tile, halo=self.geo.halo)
            except Exception as exc:  # a failed pass is reported, not raised
                self.failures.append(f"evaluate raised {type(exc).__name__}: {exc}")
                conf = None
            self.pass_walls.append(self.tracer.clock() - t0)
            self.pass_scenes.append(sum(1 for _, end in self.tracer.values["scenes"][scenes_before:]
                                        if end is not None))
            self.confusions.append(conf)

    # -- output checks -------------------------------------------------------------
    def stage_groups(self) -> list[tuple[str, list[dict], dict]]:
        """Pair each run of same-stage log records with its batches call."""
        groups: list[tuple[str, list[dict]]] = []
        for rec in self.log:
            if rec["stage"] == "setup":
                continue
            if groups and groups[-1][0] == rec["stage"]:
                groups[-1][1].append(rec)
            else:
                groups.append((rec["stage"], [rec]))
        calls = self.tracer.values.get("batch_calls", [])
        return [(stage, recs, call) for (stage, recs), call in zip(groups, calls)]

    def check_train(self):
        tc = self.train_config
        roles = ["rgb", "depth", "ir"] if tc.mode == "multi" else ["rgb", "depth"]
        calib = max(1, tc.gamma.sample_batches)
        expected = [(f"stage1:{r}", tc.stage1_steps, 0) for r in roles]
        expected += [("stage3", calib, 0), ("stage4", tc.stage4_steps, calib)]
        planned = sum(n for _, n, _ in expected)
        done = sum(1 for rec in self.log if rec["stage"] != "setup")
        # every planned step is an operation; a step that never ran failed
        self.attempted += planned
        self.failed += max(0, planned - done)

        if self.corrupt == "loss" and self.log:
            self.log[-1]["total"] = float("nan")
        for rec in self.log:
            if rec["stage"] == "setup":
                continue
            vals = [rec["total"], *rec["terms"].values()]
            if rec["gamma"] is not None:
                vals.append(rec["gamma"])
            self.check(all(math.isfinite(v) for v in vals),
                       f"non-finite loss or gamma in {rec['stage']} step {rec['step']}")

        groups = self.stage_groups()
        self.check(len(groups) == len(expected), "one batches call per stage group")
        for (stage, recs, call), (want_stage, want_n, skip) in zip(groups, expected):
            self.check(stage == want_stage and len(recs) == want_n
                       and [r["step"] for r in recs] == list(range(want_n))
                       and len(call["batches"]) == want_n + skip,
                       f"one log record per step in {want_stage}")

        if self.corrupt == "checkpoint" and self.snapshots:
            path = self.snapshots[-1][0]
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF  # inside the parameter records
            path.write_bytes(bytes(blob))
        self.check(len(self.snapshots) == 3, "three checkpoints written")
        for path, roster, params in self.snapshots:
            try:
                loaded = model.load_checkpoint(path)
                got = {p.name: _digest(p.data) for role in sorted(loaded.branches)
                       for p in loaded.branches[role].parameters()}
                ok = sorted(loaded.branches) == roster and got == params
            except Exception:  # an unreadable checkpoint fails its check
                ok = False
            self.check(ok, f"checkpoint {path.name} reloads bit-identically")

    def check_eval(self):
        records = self.manifest.splits["test"]
        self.attempted += self.plan["passes"] * len(records)
        # a scene whose confusion update never happened failed
        self.failed += sum(len(records) - n for n in self.pass_scenes)
        expected_total = 0
        for rec in records:
            labels = data.read_tensor_file(
                self.manifest.scene_dir(rec.scene_id) / "labels.mtns")
            expected_total += non_eroded_count(labels, evaluate.EROSION_RADIUS)
        for conf in self.confusions:
            if conf is not None and self.corrupt == "confusion":
                conf.counts[0, 0] += 1
            self.check(conf is not None and conf.total() == expected_total,
                       "confusion total equals non-eroded pixel count")

    # -- metrics -----------------------------------------------------------------
    def train_steps(self) -> dict[str, list[float]]:
        """Step wall times per stage; a step runs from its batch request to the next."""
        steps: dict[str, list[float]] = {"stage1": [], "stage4": []}
        self.patches = 0
        for stage, recs, call in self.stage_groups():
            requests = [b[0] for b in call["batches"]] + [call["end"]]
            skip = len(call["batches"]) - len(recs)
            self.patches += sum(b[2] for b in call["batches"][skip:])
            key = stage.split(":")[0]
            if key in steps and call["end"] is not None:
                steps[key] += [b - a for a, b in zip(requests[skip:-1], requests[skip + 1:])]
        return steps

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        geo = self.geo
        samples = {"stage1_step_s": [], "stage4_step_s": [], "eval_scene_s": []}
        rates = {"train_patches_per_s": 0.0, "eval_mpx_per_s": 0.0}
        warmup = 0.0
        if self.workload == "eval-scenes":
            samples["eval_scene_s"] = [b - a for a, b in self.tracer.values["scenes"]
                                       if b is not None]
            rates["eval_mpx_per_s"] = median(
                [n * geo.eval_size ** 2 / wall / 1e6
                 for n, wall in zip(self.pass_scenes, self.pass_walls)])
            unit, unit_rate = samples["eval_scene_s"], rates["eval_mpx_per_s"]
        else:
            steps = self.train_steps()
            samples["stage1_step_s"] = steps["stage1"]
            samples["stage4_step_s"] = steps["stage4"][STAGE4_WARMUP:]
            warmup = sum(steps["stage4"][:STAGE4_WARMUP])
            rates["train_patches_per_s"] = self.patches / self.protocol_wall
            unit = samples["stage4_step_s"]
            unit_rate = rates["train_patches_per_s"] * geo.patch ** 2 / 1e6
        self.samples = {**samples, "setup_s": self.setup_times}
        # the user-level figures, every name on every workload (0 where absent)
        self.figures: dict[str, tuple[float, str]] = {}
        # (a tail needs more samples than one run has; suite.py pools them)
        for name, values in samples.items():
            self.figures[f"{name}.p50"] = (median(values), "s")
            self.figures[f"{name}.samples"] = (len(values), "count")
        self.figures["setup_first_s"] = (self.setup_times[0], "s")
        self.figures["stage4_warmup_s"] = (warmup, "s")
        self.figures["train_patches_per_s"] = (rates["train_patches_per_s"], "patch/s")
        self.figures["eval_mpx_per_s"] = (rates["eval_mpx_per_s"], "Mpx/s")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"setup_s": (median(self.setup_times), "s"),
                "step_s.p50": (median(unit), "s"),
                "mpx_per_s": (unit_rate, "Mpx/s"),
                "peak_rss_mb": (rss_mb, "MB")}

    def tile_disagree_px(self) -> int:
        """Class-map pixels where tiled inference differs from one whole-scene predict."""
        total = 0
        for rasters, availability, pred in self.predictions:
            whole = model.predict(self.bundle, {k: v[None] for k, v in rasters.items()},
                            availability)[0]
            total += int((whole != pred).sum())
        return total

    def per_layer(self) -> dict[str, tuple[float, str]]:
        t = self.tracer
        rows = t.self_times()
        counts = t.counts

        def incl(name):
            return rows.get(name, {}).get("incl_s", 0.0)

        def calls(name):
            return rows.get(name, {}).get("calls", 0)

        m: dict[str, tuple[float, str]] = {}
        for g in OP_GROUPS:
            m[f"engine.{g}.fwd_s"] = (incl(f"engine.{g}.fwd"), "s")
            m[f"engine.{g}.bwd_s"] = (incl(f"engine.{g}.bwd"), "s")
            m[f"engine.{g}.calls"] = (counts[f"engine.{g}.calls"], "count")
        conv_s = incl("engine.conv2d.fwd") + incl("engine.conv2d.bwd")
        gflop = counts["engine.conv2d.flop"] / 1e9
        m["engine.backward_s"] = (incl("engine.backward"), "s")
        m["engine.graph_nodes"] = (counts["engine.graph_nodes"], "count")
        m["engine.conv2d.gflop"] = (gflop, "GFLOP")
        m["engine.conv2d.gflops"] = (gflop / conv_s if conv_s else 0.0, "GFLOP/s")
        m["engine.conv2d.bytes_out"] = (counts["engine.conv2d.bytes_out"], "B")

        for role in ROLES:
            m[f"model.branch_fwd_s.{role}"] = (incl(f"model.branch_fwd.{role}"), "s")
        m["model.predict_s"] = (incl("model.predict"), "s")
        m["model.predict_calls"] = (calls("model.predict"), "count")
        m["model.fuse_s"] = (incl("model.fuse"), "s")
        m["model.checkpoint_save_s"] = (incl("model.checkpoint_save"), "s")
        m["model.checkpoint_load_s"] = (incl("model.checkpoint_load"), "s")
        m["model.checkpoint_bytes"] = (counts["model.checkpoint_bytes"], "B")

        m["losses.objective_fwd_s"] = (incl("losses.objective"), "s")
        m["losses.terms"] = (t.values.get("losses.terms", 0), "count")
        m["losses.weighted_ce_s"] = (incl("losses.weighted_ce"), "s")
        m["losses.weighted_ce_calls"] = (calls("losses.weighted_ce"), "count")
        m["losses.mimicry_s"] = (incl("losses.mimicry"), "s")
        m["losses.calibrate_s"] = (incl("losses.calibrate"), "s")

        fwd = bwd = opt = 0.0
        step_rows = {i: s for i, s in enumerate(t.spans) if s[0] == "train.step"}
        for name, start, end, parent in t.spans:
            if name == "engine.backward" and parent in step_rows:
                _, s0, s1, _ = step_rows[parent]
                fwd += start - s0
                bwd += end - start
                opt += s1 - end
        grads = counts["train.grad_elems"]
        m["train.step_fwd_s"] = (fwd, "s")
        m["train.step_bwd_s"] = (bwd, "s")
        m["train.step_opt_s"] = (opt, "s")
        m["train.clip_s"] = (incl("train.clip"), "s")
        m["train.adam_s"] = (incl("train.adam"), "s")
        m["train.adam_state_bytes"] = (t.values.get("train.adam_state_bytes", 0), "B")
        m["train.frozen_grad_share"] = (counts["train.frozen_grad_elems"] / grads
                                        if grads else 0.0, "ratio")
        steps = self.train_steps() if self.workload != "eval-scenes" else {}
        m["train.stage1_s"] = (float(sum(steps.get("stage1", []))), "s")
        m["train.stage4_s"] = (float(sum(steps.get("stage4", []))), "s")
        last = [r["total"] for r in getattr(self, "log", []) if r["stage"] == "stage4"][-3:]
        m["train.loss_last"] = (float(np.mean(last)) if last else 0.0, "loss")

        m["data.batch_wait_s"] = (incl("data.batch_wait"), "s")
        m["data.batches"] = (sum(len(c["batches"]) for c in t.values.get("batch_calls", [])),
                             "count")
        m["data.sampler_init_s"] = (incl("data.sampler_init"), "s")
        m["data.load_scene_s"] = (incl("data.load_scene"), "s")
        m["data.bytes_read"] = (counts["data.bytes_read"], "B")

        m["synthetic.generate_s"] = (incl("synthetic.generate"), "s")
        m["synthetic.scenes"] = (calls("synthetic.scene"), "count")

        scene_px = counts["evaluate.scene_px"]
        tiles = sum(1 for name, _, _, parent in t.spans
                    if name == "model.predict" and parent >= 0
                    and t.spans[parent][0] == "evaluate.tiled_inference")
        m["evaluate.tiled_inference_s"] = (incl("evaluate.tiled_inference"), "s")
        m["evaluate.tiles"] = (tiles, "count")
        m["evaluate.tile_px_ratio"] = (counts["evaluate.tile_px"] / scene_px
                                       if scene_px else 0.0, "ratio")
        m["evaluate.stitch_s"] = (rows.get("evaluate.tiled_inference", {}).get("self_s", 0.0),
                                  "s")
        m["evaluate.erosion_s"] = (incl("evaluate.erosion"), "s")
        m["evaluate.accumulate_s"] = (incl("evaluate.accumulate"), "s")
        m["evaluate.metrics_s"] = (incl("evaluate.metrics"), "s")
        m["evaluate.tile_disagree_px"] = (self.tile_disagree_px(), "px")

        # the user-level figures under tracing
        m.update({f"traced.{k}": v for k, v in self.figures.items()})
        m["trace.spans"] = (len(t.spans), "count")
        m["trace.overhead_est_s"] = (len(t.spans) * span_cost(), "s")
        return m


def span_cost(samples: int = 20000) -> float:
    """Seconds one begin/end pair costs, timed on a throwaway tracer."""
    t = Tracer()
    t0 = t.clock()
    for _ in range(samples):
        t.end(t.begin("x"))
    return (t.clock() - t0) / samples
