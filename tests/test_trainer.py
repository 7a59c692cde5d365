"""Trainer: Adam, clipping, freezing, staged protocol, determinism."""
import copy
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hallucinet.train as train_mod
import reference_kernels
from hallucinet.data import (
    MissingModalityError,
    PatchSpec,
    load_manifest,
    read_tensor_file,
    write_tensor_file,
)
from hallucinet.engine import NonFiniteError, Parameter, mul
from hallucinet.losses import GammaPolicy, calibrate_gamma
from hallucinet.model import BranchConfig
from hallucinet.train import (
    AdamState,
    DivergenceError,
    TrainConfig,
    _start,
    _tap_prefix,
    adam_step,
    clip_gradients,
    run_protocol,
    train_baselines,
)

FAST = TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                   stage1_steps=6, stage4_steps=6, seed=0)


class TestClip:
    def test_clamps_large_element(self):
        out = clip_gradients([np.array([10.0])], 1.0)
        assert out[0][0] == 1.0

    def test_identity_within_range(self, rng):
        g = rng.uniform(-0.5, 0.5, size=16)
        out = clip_gradients([g], 1.0)
        assert np.array_equal(out[0], g)

    def test_negative_clamp(self):
        assert clip_gradients([np.array([-3.5])], 2.0)[0][0] == -2.0

    def test_bound_always_holds(self, rng):
        g = rng.normal(scale=5.0, size=100)
        out = clip_gradients([g], 0.7)[0]
        assert np.abs(out).max() <= 0.7


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Parameter(np.array([1.0, -2.0], dtype=np.float32), "p")
        g = np.array([0.3, -0.02], dtype=np.float32)
        state = AdamState(lr=1e-3)
        adam_step([p], [g], state)
        # m_hat = g, v_hat = g^2 so the step is lr * sign(g) up to eps
        assert np.allclose(p.data, [1.0 - 1e-3, -2.0 + 1e-3], atol=1e-6)

    def test_zero_gradient_keeps_parameter(self):
        p = Parameter(np.array([0.5], dtype=np.float32), "p")
        state = AdamState(lr=1e-2)
        adam_step([p], [np.array([1.0], dtype=np.float32)], state)
        moved = p.data.copy()
        adam_step([p], [np.zeros(1, dtype=np.float32)], state)
        # the first moment decays by beta1 when the gradient is zero
        assert state.m["p"][0] == pytest.approx(0.9 * 0.1, rel=1e-5)
        p2 = Parameter(np.array([0.5], dtype=np.float32), "q")
        s2 = AdamState(lr=1e-2)
        adam_step([p2], [np.zeros(1, dtype=np.float32)], s2)
        assert p2.data[0] == 0.5
        assert moved[0] != 0.5

    def test_frozen_parameter_untouched(self):
        p = Parameter(np.array([1.0], dtype=np.float32), "p", requires_grad=False)
        state = AdamState(lr=0.1)
        adam_step([p], [np.array([5.0], dtype=np.float32)], state)
        assert p.data[0] == 1.0

    def test_no_moments_for_parameter_without_grad(self):
        frozen = Parameter(np.array([1.0], dtype=np.float32), "frozen", requires_grad=False)
        live = Parameter(np.array([1.0], dtype=np.float32), "live")
        state = AdamState(lr=0.1)
        adam_step([frozen, live], [np.array([5.0], dtype=np.float32),
                                   np.array([5.0], dtype=np.float32)], state)
        assert set(state.m) == set(state.v) == {"live"}

    def test_version_counts_the_steps_that_move_a_parameter(self):
        """Each step that moves a parameter advances its version by one; a
        frozen parameter and one without a gradient keep theirs."""
        live = Parameter(np.array([1.0], dtype=np.float32), "live")
        frozen = Parameter(np.array([1.0], dtype=np.float32), "frozen", requires_grad=False)
        gradless = Parameter(np.array([1.0], dtype=np.float32), "gradless")
        state = AdamState(lr=0.1)
        for step in (1, 2, 3):
            adam_step([live, frozen, gradless], [np.array([5.0], dtype=np.float32),
                                                 np.array([5.0], dtype=np.float32), None], state)
            assert (live.version, frozen.version, gradless.version) == (step, 0, 0)

    def test_non_finite_gradient_moves_nothing(self):
        """The optimizer round, adam_step's caller, refuses a non-finite
        gradient before any parameter or moment moves."""
        a = Parameter(np.array([1.0, -1.0], dtype=np.float32), "a")
        b = Parameter(np.array([2.0], dtype=np.float32), "b")
        c = Parameter(np.array([3.0], dtype=np.float32), "c")
        state = AdamState(lr=0.1)
        a.grad, b.grad = np.full(2, 0.5, np.float32), np.ones(1, np.float32)
        train_mod._optimizer_round([a, b], state, 1.0)

        def snapshot():
            arrays = [a.data, b.data, c.data, *state.m.values(), *state.v.values()]
            return [x.tobytes() for x in arrays], sorted(state.m), sorted(state.v), state.step_count

        before = snapshot()
        # a comes before the bad gradient and b after it
        a.grad, c.grad, b.grad = (np.full(2, 0.5, np.float32), np.array([np.nan], np.float32),
                                  np.ones(1, np.float32))
        with pytest.raises(NonFiniteError, match="gradient for c$"):
            train_mod._optimizer_round([a, c, b], state, 1.0)
        assert snapshot() == before


@pytest.mark.parametrize("bad", [[np.inf, 0.5, -np.inf], [0.5, np.nan, 0.25]])
def test_optimizer_round_rejects_non_finite_before_clipping(bad):
    """A non-finite gradient is neither clamped nor applied: the round
    raises with the parameters, the moments and the step count untouched."""
    p = Parameter(np.ones(3, dtype=np.float32), "p")
    state = AdamState(lr=0.1)
    p.grad = np.full(3, 0.5, np.float32)
    train_mod._optimizer_round([p], state, 1.0)

    def snapshot():
        return p.data.tobytes(), state.m["p"].tobytes(), state.v["p"].tobytes(), state.step_count

    before = snapshot()
    p.grad = np.array(bad, dtype=np.float32)
    with pytest.raises(NonFiniteError, match="gradient for p$"):
        train_mod._optimizer_round([p], state, 1.0)
    assert snapshot() == before


def _float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def test_gradient_fault_names_the_stage_and_step(tiny_dataset, tiny_config, monkeypatch):
    """A non-finite gradient stops training as a non-finite forward does:
    with a DivergenceError naming the stage, the step and the parameter."""
    opt_round = train_mod._optimizer_round

    def poisoned(params, *args):
        params[0].grad.flat[0] = np.nan
        return opt_round(params, *args)

    monkeypatch.setattr(train_mod, "_optimizer_round", poisoned)
    with pytest.raises(DivergenceError, match="^stage1:rgb diverged at step 0: non-finite "
                                              "gradient for rgb/block0/conv0/weight$"):
        run_protocol(tiny_dataset, tiny_config, replace(FAST, stage1_steps=1, stage4_steps=1))


def test_calibration_fault_names_stage3(tiny_dataset, tiny_config, monkeypatch):
    """A non-finite value in stage 3's objective is a DivergenceError of
    stage3 at its calibration step."""
    objective = train_mod.composite_loss

    def overflowing(*args, **kwargs):
        bd = objective(*args, **kwargs)
        return bd._replace(total=mul(bd.total, np.float32(np.inf)))

    monkeypatch.setattr(train_mod, "composite_loss", overflowing)
    with pytest.raises(DivergenceError, match="^stage3 diverged at step 0: "
                                              "non-finite values produced by mul$"):
        run_protocol(tiny_dataset, tiny_config, replace(FAST, stage1_steps=1, stage4_steps=1))


@pytest.mark.parametrize("grads", ["beyond_threshold", "signed_zeros"])
def test_optimizer_round_bit_identical_to_out_of_place(rng, grads):
    """Three in-place rounds against the earlier out-of-place clip and Adam:
    mixed shapes, a frozen parameter with a gradient, a parameter without
    one, and a threshold float32 cannot hold exactly."""
    shapes = [(4, 3, 3, 3), (4,), (2, 5), (1,), (3,)]
    init = [rng.normal(size=s).astype(np.float32) for s in shapes]
    runs = []
    for _ in range(2):
        params = [Parameter(a.copy(), f"p{i}") for i, a in enumerate(init)]
        params[1].requires_grad = False
        runs.append((params, AdamState(lr=1e-2)))
    (params, state), (ref_params, ref_state) = runs
    for _ in range(3):
        if grads == "beyond_threshold":
            draws = [rng.normal(scale=2.0, size=s).astype(np.float32) for s in shapes]
        else:
            draws = [np.full(s, -0.0, dtype=np.float32) for s in shapes]
        draws[4] = None
        for p, q, g in zip(params, ref_params, draws):
            p.grad = None if g is None else g.copy()
            q.grad = None if g is None else g.copy()
        logged = train_mod._optimizer_round(params, state, 0.7)
        expected = reference_kernels.optimizer_round(ref_params, ref_state, 0.7)
        assert [_float_bits(v) for v in logged] == [_float_bits(v) for v in expected]
        for p, q in zip(params, ref_params):
            assert p.grad is None and p.data.tobytes() == q.data.tobytes(), p.name
        assert state.step_count == ref_state.step_count
        assert set(state.m) == set(ref_state.m) == {"p0", "p2", "p3"}
        for name in state.m:
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
    if grads == "beyond_threshold":
        assert logged[0] > 0.7 and logged[1] == float(np.float32(0.7))
    else:
        assert logged == (0.0, 0.0)


class TestMfbWeights:
    """`_start` weighs the classes by the sampler's frequencies."""

    @staticmethod
    def _start(frequencies, mfb=True):
        sampler = SimpleNamespace(frequencies=np.array(frequencies))
        return _start(sampler, replace(FAST, mfb=mfb), None)

    def test_uniform_when_disabled(self):
        w, log = self._start([0.5, 0.3, 0.2], mfb=False)
        assert np.allclose(w.weights, 1.0)
        assert log[0]["class_weights"] == [1.0, 1.0, 1.0] and log[0]["mfb"] is False

    def test_absent_class_gets_unit_weight(self):
        w, _ = self._start([0.5, 0.5, 0.0])
        assert w.weights[2] == 1.0
        assert np.allclose(w.weights[:2], 1.0)
        w, log = self._start([0.5, 0.3, 0.0, 0.2])
        assert np.allclose(w.weights, [0.6, 1.0, 1.0, 1.5])
        assert log[0]["class_frequencies"] == [0.5, 0.3, 0.0, 0.2]


@pytest.fixture(scope="module")
def single_run(tiny_dataset, tiny_config):
    bundle, log = run_protocol(tiny_dataset, tiny_config, FAST)
    return bundle, log


class TestProtocolSingle:
    def test_branch_roster(self, single_run):
        bundle, _ = single_run
        assert set(bundle.branches) == {"rgb", "depth", "hal_depth"}
        assert bundle.stage == "stage4"

    def test_hal_initialized_from_depth_deep_layers(self, tiny_dataset, tiny_config):
        # stop right after stage 2 by running with 1-step stage 4 and
        # inspecting the stage2 checkpoint
        import tempfile

        from hallucinet.model import load_checkpoint

        with tempfile.TemporaryDirectory() as tmp:
            cfg = TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                              stage1_steps=2, stage4_steps=1, seed=3)
            run_protocol(tiny_dataset, tiny_config, cfg, out_dir=tmp)
            staged = load_checkpoint(f"{tmp}/checkpoint_stage2.ckpt")
            depth = {p.name.split("/", 1)[1]: p.data
                     for p in staged.branches["depth"].parameters()}
            hal = {p.name.split("/", 1)[1]: p.data
                   for p in staged.branches["hal_depth"].parameters()}
            for key, value in depth.items():
                if key == "block0/conv0/weight":
                    continue  # fresh: channel counts differ (1 vs 3)
                assert np.array_equal(value, hal[key])

    def test_frozen_parameters_bit_identical(self, tiny_dataset, tiny_config, tmp_path):
        from hallucinet.model import load_checkpoint

        cfg = TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                          stage1_steps=2, stage4_steps=4, seed=5)
        bundle, _ = run_protocol(tiny_dataset, tiny_config, cfg, out_dir=tmp_path)
        staged = load_checkpoint(tmp_path / "checkpoint_stage2.ckpt")
        before = _tap_prefix(staged.branches["depth"])
        after = _tap_prefix(bundle.branches["depth"])
        assert before and [p.name for p in before] == [p.name for p in after]
        for b, a in zip(before, after):
            # the checkpoint stores float32, as the branches train
            assert b.data.dtype == a.data.dtype and np.array_equal(b.data, a.data)
        # trainable flags restored after the stage
        assert all(p.trainable for p in bundle.branches["depth"].parameters())

    def test_unfrozen_depth_layers_move(self, single_run, tiny_dataset, tiny_config):
        bundle, _ = single_run
        staged, _ = run_protocol(
            tiny_dataset, tiny_config,
            TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                        stage1_steps=FAST.stage1_steps, stage4_steps=1, seed=0))
        # score head above the tap is trainable in stage 4
        a = dict((p.name, p.data) for p in bundle.branches["depth"].parameters())
        b = dict((p.name, p.data) for p in staged.branches["depth"].parameters())
        assert not np.array_equal(a["depth/score/weight"], b["depth/score/weight"])

    def test_log_accounting(self, single_run):
        _, log = single_run
        stage4 = [rec for rec in log if rec["stage"] == "stage4"]
        assert stage4
        for rec in stage4:
            gamma = rec["gamma"]
            hal = sum(v for k, v in rec["terms"].items() if k.startswith("hallucinate"))
            other = sum(v for k, v in rec["terms"].items() if not k.startswith("hallucinate"))
            recomposed = gamma * hal + other
            assert rec["total"] == pytest.approx(recomposed, rel=1e-6)

    def test_gamma_calibration_property(self, single_run):
        _, log = single_run
        cal = [rec for rec in log if rec["stage"] == "stage3"]
        assert len(cal) == 1
        terms = cal[0]["terms"]
        gamma = cal[0]["gamma"]
        others = max(v for k, v in terms.items() if not k.startswith("hallucinate"))
        assert gamma * terms["hallucinate_depth"] == pytest.approx(10.0 * others, rel=1e-6)
        # stage 3 calibrates from exactly the term values it logs
        assert gamma == calibrate_gamma(terms, GammaPolicy())

    def test_setup_record_logs_weights(self, single_run):
        _, log = single_run
        setup = log[0]
        assert setup["stage"] == "setup"
        assert len(setup["class_weights"]) == 4
        assert setup["mfb"] is True

    def test_always_available_modality_rejected(self, tiny_dataset, tiny_config):
        # color is what the hallucination branch reads, not a modality to hallucinate
        with pytest.raises(ValueError, match="not an optional modality \\(height\\)"):
            run_protocol(tiny_dataset, tiny_config, replace(FAST, hallucinate="color"))

    def test_hallucinate_selects_the_modality_of_role_depth(self, tiny_dataset_ir, tiny_config,
                                                           tmp_path):
        """train.hallucinate "ir" trains role depth on ir: a copy of the
        dataset whose height rasters hold only NaN trains, as no height
        raster is read."""
        shutil.copytree(tiny_dataset_ir.root, tmp_path / "ds")
        for path in (tmp_path / "ds" / "scenes").rglob("height.mtns"):
            write_tensor_file(path, np.full_like(read_tensor_file(path), np.nan))
        bundle, _ = run_protocol(load_manifest(tmp_path / "ds" / "manifest.json"), tiny_config,
                                 replace(FAST, stage1_steps=1, stage4_steps=1, hallucinate="ir"))
        assert bundle.role_modalities == {"rgb": "color", "depth": "ir"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_surfaces_with_stage_tag(self, tiny_dataset, tiny_config):
        cfg = TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                          stage1_steps=3, stage4_steps=3, seed=0, lr_stage1=1e12,
                          clip_threshold=1e12)
        with pytest.raises(DivergenceError):
            run_protocol(tiny_dataset, tiny_config, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage4_divergence_names_its_step(self, tiny_dataset, tiny_config):
        cfg = replace(FAST, stage1_steps=1, stage4_steps=4, lr_stage4=1e12,
                      clip_threshold=1e12)
        with pytest.raises(DivergenceError, match="stage4 diverged at step"):
            run_protocol(tiny_dataset, tiny_config, cfg)

    def test_calibration_batches_are_not_trained_on(self, tiny_dataset, tiny_config,
                                                    monkeypatch):
        """Stage 3 and stage 4 read one sampler stream in order, each batch once."""
        import hallucinet.train as train_mod
        from hallucinet.data import PatchSampler

        seen = []
        objective = train_mod.composite_loss

        def objective_spy(outputs, labels, *args, **kwargs):
            seen.append(labels.copy())
            return objective(outputs, labels, *args, **kwargs)

        monkeypatch.setattr(train_mod, "composite_loss", objective_spy)
        cfg = replace(FAST, stage1_steps=1, stage4_steps=3,
                      gamma=GammaPolicy(sample_batches=2))
        _, log = run_protocol(tiny_dataset, tiny_config, cfg)
        assert [rec["step"] for rec in log if rec["stage"] == "stage3"] == [0, 1]
        assert [rec["step"] for rec in log if rec["stage"] == "stage4"] == [0, 1, 2]
        sampler = PatchSampler(tiny_dataset, "train", cfg.patch, cfg.batch_size,
                               modalities=["color", "height"])
        stream = [labels for _, labels in sampler.batches(2 + cfg.stage4_steps,
                                                          cfg.seed * 10 + 4)]
        assert len(seen) == len(stream)
        for got, want in zip(seen, stream):
            assert np.array_equal(got, want)
        assert len({labels.tobytes() for labels in seen}) == len(seen)


@pytest.mark.parametrize("run, sampled", [
    ("single", ["color", "height"]),
    ("multi", ["color", "height", "ir"]),
    ("baseline", ["color"]),
])
def test_training_reads_each_train_file_once(run, sampled, tiny_dataset, tiny_dataset_ir,
                                             tiny_config, monkeypatch):
    """One run, or one training of both baselines, reads the labels and
    each sampled raster of every train scene once, for the class weights
    and every stage's or variant's batches, and no other file of the
    dataset."""
    import hallucinet.data as data_mod

    reads = []
    read = data_mod.read_tensor_file

    def read_spy(path):
        reads.append((Path(path).parent.name, Path(path).name))
        return read(path)

    monkeypatch.setattr(data_mod, "read_tensor_file", read_spy)
    dataset = tiny_dataset_ir if run == "multi" else tiny_dataset
    cfg = replace(FAST, stage1_steps=1, stage4_steps=1, baseline_steps=1,
                  mode="multi" if run == "multi" else "single")
    if run == "baseline":
        train_baselines(dataset, tiny_config, cfg)
    else:
        run_protocol(dataset, tiny_config, cfg)
    want = [(rec.scene_id, f"{name}.mtns") for rec in dataset.splits["train"]
            for name in ("labels", *sampled)]
    assert sorted(reads) == sorted(want)


class TestDeterminism:
    def test_identical_checkpoints_across_runs(self, tiny_dataset, tiny_config, tmp_path):
        from hallucinet.model import save_checkpoint

        cfg = TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                          stage1_steps=3, stage4_steps=3, seed=7)
        b1, _ = run_protocol(tiny_dataset, tiny_config, cfg)
        b2, _ = run_protocol(tiny_dataset, tiny_config, cfg)
        save_checkpoint(b1, tmp_path / "a.ckpt")
        save_checkpoint(b2, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_zero_learning_rate_keeps_parameters(self, tiny_dataset, tiny_config):
        cfg = TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                          stage1_steps=2, stage4_steps=2, seed=1,
                          lr_stage1=0.0, lr_stage4=0.0, baseline_steps=2)
        from hallucinet.model import build_branch

        baselines = train_baselines(tiny_dataset, tiny_config, cfg)
        for stream, (bundle, _) in zip((40, 41), baselines, strict=True):
            fresh = build_branch(tiny_config, 3, "rgb", np.random.default_rng([1, stream]))
            for trained, init in zip(bundle.branches["rgb"].parameters(),
                                     fresh.parameters()):
                assert np.array_equal(trained.data, init.data)

    def test_same_seed_same_loss_curve(self, tiny_dataset, tiny_config):
        logs = []
        for _ in range(2):
            (_, log), _ = train_baselines(
                tiny_dataset, tiny_config,
                TrainConfig(batch_size=4, patch=PatchSpec(size=64, overlap=0.5),
                            stage1_steps=2, stage4_steps=2, baseline_steps=4, seed=2))
            logs.append([rec["total"] for rec in log if rec["stage"].startswith("baseline")])
        assert logs[0] == logs[1]


class TestMissingOutDir:
    CFG = TrainConfig(batch_size=2, patch=PatchSpec(size=64, overlap=0.5),
                      stage1_steps=1, stage4_steps=1, baseline_steps=1, seed=4)

    def test_run_protocol_creates_out_dir(self, tiny_dataset, tiny_config, tmp_path):
        out = tmp_path / "new" / "run"
        run_protocol(tiny_dataset, tiny_config, self.CFG, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint_stage1.ckpt", "checkpoint_stage2.ckpt", "checkpoint_stage4.ckpt",
            "train_log.jsonl"]

    def test_baseline_creates_out_dir(self, tiny_dataset, tiny_config, tmp_path):
        out = tmp_path / "new" / "baseline"
        train_baselines(tiny_dataset, tiny_config, self.CFG, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "baseline0_log.jsonl", "baseline1_log.jsonl", "checkpoint_baseline0.ckpt",
            "checkpoint_baseline1.ckpt"]


class TestTrainingStart:
    """Checks that run before any step: the patch size against the model's
    downsample factor, and the train scenes' availability flags."""
    CFG = TestMissingOutDir.CFG

    def test_patch_a_multiple_of_the_factor_not_of_32(self, tiny_dataset):
        config = BranchConfig(class_count=4, blocks=((6, 1), (10, 1)), tap_depth=1)
        assert config.downsample_factor == 8
        bundle, _ = run_protocol(tiny_dataset, config, replace(self.CFG, patch=PatchSpec(size=48)))
        assert bundle.stage == "stage4"

    @pytest.mark.parametrize("trainer", [run_protocol, train_baselines])
    @pytest.mark.parametrize("blocks, size, factor", [
        (((8, 2), (16, 2), (24, 2)), 100, 16), (((4, 1),) * 5, 96, 64)])
    def test_patch_off_the_factor_rejected(self, tiny_dataset, tmp_path, trainer, blocks,
                                           size, factor):
        config = BranchConfig(class_count=4, blocks=blocks, tap_depth=1)
        cfg = replace(self.CFG, patch=PatchSpec(size=size))
        with pytest.raises(ValueError, match=f"train.patch.size {size} must be divisible "
                                             f"by the model's downsample factor {factor}"):
            trainer(tiny_dataset, config, cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_flagged_train_scene_rejected_unless_unread(self, tiny_dataset, tiny_config,
                                                        tmp_path):
        manifest = copy.deepcopy(tiny_dataset)
        rec = manifest.splits["train"][0]
        rec.availability["height"] = False
        with pytest.raises(MissingModalityError, match=f"scene {rec.scene_id} .*'height'"):
            run_protocol(manifest, tiny_config, self.CFG, out_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "checkpoint_stage1.ckpt").exists()
        for bundle, _ in train_baselines(manifest, tiny_config, self.CFG):
            assert set(bundle.branches) == {"rgb"}


@pytest.mark.parametrize("steps", [0, -3])
def test_baseline_budget_must_be_positive(steps):
    with pytest.raises(ValueError, match="step budgets"):
        TrainConfig(baseline_steps=steps)


@pytest.mark.parametrize("lr", [-0.001, -1e-12, float("inf"), float("nan")])
@pytest.mark.parametrize("name", ["lr_stage1", "lr_stage4"])
def test_learning_rate_must_be_finite_and_non_negative(name, lr):
    # a negative rate would train by gradient ascent; zero stays valid
    with pytest.raises(ValueError, match=f"train.{name} must be finite and non-negative"):
        TrainConfig(**{name: lr})
    assert getattr(TrainConfig(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("inf"), float("nan")])
def test_clip_threshold_must_be_finite_and_positive(threshold):
    # an infinite threshold would turn clipping off; clip_gradients takes
    # the threshold of a config, so this is its one check
    with pytest.raises(ValueError, match="train.clip_threshold must be finite and positive"):
        TrainConfig(clip_threshold=threshold)


@pytest.fixture(scope="module")
def multi_run(tiny_dataset_ir, tiny_config):
    cfg = TrainConfig(mode="multi", batch_size=4,
                      patch=PatchSpec(size=64, overlap=0.5),
                      stage1_steps=4, stage4_steps=6, seed=0)
    return run_protocol(tiny_dataset_ir, tiny_config, cfg)


class TestProtocolMulti:
    def test_five_branches(self, multi_run):
        bundle, _ = multi_run
        assert set(bundle.branches) == {"rgb", "depth", "ir", "hal_depth", "hal_ir"}

    def test_eleven_terms_logged(self, multi_run):
        _, log = multi_run
        stage4 = [rec for rec in log if rec["stage"] == "stage4"]
        assert stage4
        assert all(len(rec["terms"]) == 11 for rec in stage4)

    def test_gamma_shared_by_both_mimicry_terms(self, multi_run):
        _, log = multi_run
        stage4 = [rec for rec in log if rec["stage"] == "stage4"]
        gammas = {rec["gamma"] for rec in stage4}
        assert len(gammas) == 1
        rec = stage4[0]
        hal = rec["terms"]["hallucinate_ir"] + rec["terms"]["hallucinate_depth"]
        other = sum(v for k, v in rec["terms"].items()
                    if not k.startswith("hallucinate"))
        assert rec["total"] == pytest.approx(rec["gamma"] * hal + other, rel=1e-6)

    def test_hallucinate_rejected(self):
        # mode multi hallucinates every optional modality; naming one is an error
        with pytest.raises(ValueError, match="hallucinates the optional modalities in order"):
            TrainConfig(mode="multi", stage1_steps=1, stage4_steps=1, hallucinate="ir")

    def test_clip_bound_in_log(self, multi_run):
        _, log = multi_run
        for rec in log:
            if rec.get("grad_max_post") is not None:
                assert rec["grad_max_post"] <= 1.0 + 1e-6


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_stage4_prunes_frozen_prefix(mode, tiny_dataset, tiny_dataset_ir, tiny_config,
                                     monkeypatch):
    """Frozen prefixes get no gradient; the first conv past the tap sees no graph."""
    import hallucinet.model as model_mod
    import hallucinet.train as train_mod

    seen = {"on": False, "grads": [], "convs": []}
    fit, opt_round, conv = train_mod._fit, train_mod._optimizer_round, model_mod.conv2d

    def fit_spy(tag, *args, **kwargs):
        seen["on"] = tag == "stage4"
        try:
            return fit(tag, *args, **kwargs)
        finally:
            seen["on"] = False

    def round_spy(params, state, clip):
        if seen["on"]:
            seen["grads"].append({p.name for p in params if p.grad is not None})
        return opt_round(params, state, clip)

    def conv_spy(x, weight, *args, **kwargs):
        if seen["on"]:
            seen["convs"].append((weight.name, x.requires_grad))
        return conv(x, weight, *args, **kwargs)

    monkeypatch.setattr(train_mod, "_fit", fit_spy)
    monkeypatch.setattr(train_mod, "_optimizer_round", round_spy)
    monkeypatch.setattr(model_mod, "conv2d", conv_spy)
    cfg = TrainConfig(mode=mode, batch_size=2, patch=PatchSpec(size=64, overlap=0.5),
                      stage1_steps=1, stage4_steps=2, seed=1)
    if mode == "single":
        bundle, _ = run_protocol(tiny_dataset, tiny_config, cfg)
        frozen_roles = ["depth"]
    else:
        bundle, _ = run_protocol(tiny_dataset_ir, tiny_config, cfg)
        frozen_roles = ["depth", "ir"]

    assert len(seen["grads"]) == cfg.stage4_steps
    past_tap = f"block{tiny_config.tap_depth}/conv0/weight"
    for role in frozen_roles:
        names = {p.name for p in _tap_prefix(bundle.branches[role])}
        assert names
        for with_grad in seen["grads"]:
            assert not names & with_grad
            assert f"{role}/{past_tap}" in with_grad
        flags = {name: {f for n, f in seen["convs"] if n == name}
                 for name in (f"{role}/{past_tap}", f"hal_{role}/{past_tap}")}
        assert flags[f"{role}/{past_tap}"] == {False}
        assert flags[f"hal_{role}/{past_tap}"] == {True}
    assert all(p.requires_grad for p in bundle.parameters())
