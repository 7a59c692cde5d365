"""Branch workers: the split backward, the worker pool, and training that
does not depend on the worker count."""
import sys
import threading
import time
import types
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import hallucinet.model as model_mod
import hallucinet.parallel as parallel
import hallucinet.train as train_mod
from hallucinet.cli import main
from hallucinet.data import PatchSampler, PatchSpec
from hallucinet.engine import backward, frozen, mul
from hallucinet.losses import ClassWeights, composite_loss
from hallucinet.model import build_branch
from hallucinet.train import DivergenceError, TrainConfig, run_protocol

TINY = TrainConfig(batch_size=2, patch=PatchSpec(size=64, overlap=0.5),
                   stage1_steps=2, stage4_steps=2, seed=3)


def _threads(tasks):
    """Every task on its own thread, started together."""
    with ThreadPoolExecutor(len(tasks) or 1) as pool:
        return [f.result(timeout=60) for f in [pool.submit(task) for task in tasks]]


def _budget(monkeypatch, workers: int):
    """Force the worker budget; the BLAS cap stays the real one where there is one."""
    control = parallel._blas_control()
    limit = control[1] if control else (lambda n: nullcontext())
    monkeypatch.setattr(parallel, "_blas_control", lambda: (workers, limit))


def _joint_step(tiny_config, k: int, rng_seed: int = 5):
    """Stage-4 style outputs of a k-role bundle, the real branches frozen to the tap."""
    roles = ["depth", "ir"][:k]
    rng = np.random.default_rng(rng_seed)
    branches = {"rgb": build_branch(tiny_config, 3, "rgb", 1)}
    for j, role in enumerate(roles):
        branches[role] = build_branch(tiny_config, 1, role, 2 + j)
        branches[f"hal_{role}"] = build_branch(tiny_config, 3, f"hal_{role}", 4 + j)
    inputs = {role: rng.normal(size=(2, 1 if role in roles else 3, 32, 32)).astype(np.float32)
              for role in branches}
    labels = rng.integers(0, tiny_config.class_count, size=(2, 32, 32))
    weights = ClassWeights(np.array([1.0, 2.0, 0.5, 1.5]))
    prefix = [p for role in roles for p in train_mod._tap_prefix(branches[role])]
    return branches, inputs, labels, weights, prefix


@pytest.mark.parametrize("k", [1, 2])
def test_split_backward_bit_equal_to_whole(tiny_config, k):
    """One thread per branch (3 or 5, more than the cores of a small
    machine), switching often: every parameter gradient is bit-equal."""
    branches, inputs, labels, weights, prefix = _joint_step(tiny_config, k)
    grads = []
    interval = sys.getswitchinterval()
    for split in (False, True):
        with frozen(prefix):
            outputs = {role: b.forward(inputs[role], "train") for role, b in branches.items()}
            bd = composite_loss(outputs, labels, weights, 3.0)
            if split:
                sys.setswitchinterval(1e-5)
                try:
                    backward(bd.total, [[o.logits, o.tap] for o in outputs.values()], _threads)
                finally:
                    sys.setswitchinterval(interval)
            else:
                backward(bd.total)
        params = [p for b in branches.values() for p in b.parameters()]
        grads.append({p.name: None if p.grad is None else p.grad.tobytes() for p in params})
        for p in params:
            p.grad = None
    whole, split = grads
    assert whole.keys() == split.keys()
    assert sum(g is not None for g in whole.values()) > len(whole) // 2
    for name in whole:
        assert whole[name] == split[name], name


def test_split_refuses_groups_that_share_a_node(tiny_config):
    branches, inputs, labels, weights, _ = _joint_step(tiny_config, 1)
    outputs = {role: b.forward(inputs[role], "train") for role, b in branches.items()}
    bd = composite_loss(outputs, labels, weights, 3.0)
    rgb = outputs["rgb"]
    # the rgb tap is an ancestor of the rgb logits
    with pytest.raises(ValueError, match="share a"):
        backward(bd.total, [[rgb.logits], [rgb.tap]])
    assert all(p.grad is None for b in branches.values() for p in b.parameters())
    backward(bd.total, [[o.logits, o.tap] for o in outputs.values()])  # the graph is intact


def test_backward_frees_a_group_once_its_task_has_run(tiny_config):
    """The pass does not hold a finished group's outputs while the other
    groups run: a weakref to its logits array is dead before they end."""
    branches, inputs, labels, weights, prefix = _joint_step(tiny_config, 1)
    with frozen(prefix):
        outputs = {role: b.forward(inputs[role], "train") for role, b in branches.items()}
        bd = composite_loss(outputs, labels, weights, 3.0)
    groups = [[o.logits, o.tap] for o in outputs.values()]
    logits = [weakref.ref(o.logits.data) for o in outputs.values()]
    del outputs
    dead = []

    def run(tasks):
        results = []
        for task in tasks:
            results.append(task())
            dead.append([ref() is None for ref in logits])
        return results

    backward(bd.total, groups, run)
    assert groups == []
    assert dead == [[True, False, False], [True, True, False], [True, True, True]]
    assert all(p.grad is not None for p in branches["rgb"].parameters())


def _stage4_spies(monkeypatch, events):
    """Append stage-4 events to `events`: ("start",) for each task started
    without a wait, (role, input bytes) for each branch's prefix (the first
    part of each full forward too), ("forward", role) for each forward,
    ("groups", roles) for each backward and ("round",) for each optimizer
    round."""
    on = {"stage4": False}
    fit, start = train_mod._fit, parallel.Workers.start
    prefix, opt_round = model_mod.BranchNet.prefix, train_mod._optimizer_round
    forward, split_backward = model_mod.BranchNet.forward, train_mod.backward
    roles = {}  # id of each forward's logits -> its branch

    def forward_spy(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        if on["stage4"]:
            events.append(("forward", self.role))
            roles[id(out.logits)] = self.role
        return out

    def backward_spy(root, groups=(), run=parallel.run_in_order):
        if on["stage4"]:
            events.append(("groups", [roles[id(logits)] for logits, _ in groups]))
        return split_backward(root, groups, run)

    def fit_spy(tag, *args, **kwargs):
        on["stage4"] = tag == "stage4"
        try:
            return fit(tag, *args, **kwargs)
        finally:
            on["stage4"] = False

    def start_spy(self, task):
        if on["stage4"]:
            events.append(("start",))
        return start(self, task)

    def prefix_spy(self, x, mode="infer"):
        if on["stage4"]:
            events.append((self.role, np.asarray(x).tobytes()))
        return prefix(self, x, mode)

    def round_spy(*args):
        if on["stage4"]:
            events.append(("round",))
        return opt_round(*args)

    monkeypatch.setattr(train_mod, "_fit", fit_spy)
    monkeypatch.setattr(parallel.Workers, "start", start_spy)
    monkeypatch.setattr(model_mod.BranchNet, "prefix", prefix_spy)
    monkeypatch.setattr(model_mod.BranchNet, "forward", forward_spy)
    monkeypatch.setattr(train_mod, "backward", backward_spy)
    monkeypatch.setattr(train_mod, "_optimizer_round", round_spy)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["single", "multi"])
def test_stage4_computes_each_target_tap_once_one_batch_ahead(mode, workers, tiny_dataset,
                                                              tiny_dataset_ir, tiny_config,
                                                              monkeypatch):
    dataset = tiny_dataset if mode == "single" else tiny_dataset_ir
    cfg = replace(TINY, mode=mode, stage4_steps=4)
    targets = {"depth": "height", "ir": "ir"} if mode == "multi" else {"depth": "height"}
    _budget(monkeypatch, workers)
    events = []
    _stage4_spies(monkeypatch, events)
    run_protocol(dataset, tiny_config, cfg)

    sampler = PatchSampler(dataset, "train", cfg.patch, cfg.batch_size, seed=cfg.seed * 10 + 4,
                           modalities=["color", *targets.values()])
    calibration = cfg.gamma.sample_batches
    stream = [batch for batch, _ in sampler.batches(calibration + cfg.stage4_steps)]
    # one prefix per target and batch, in roster order, none past the last batch
    assert [e for e in events if e[0] in targets] == [
        (role, batch[mod].tobytes()) for batch in stream[calibration:]
        for role, mod in targets.items()]
    starts = [i for i, e in enumerate(events) if e == ("start",)]
    rounds = [i for i, e in enumerate(events) if e == ("round",)]
    assert len(starts) == len(rounds) == cfg.stage4_steps
    # batch t+1's prefixes start before step t's optimizer round; one
    # thread runs them at once
    for t in range(cfg.stage4_steps - 1):
        assert starts[t + 1] < rounds[t]
        if workers == 1:
            assert events[starts[t + 1] + 1][0] == "depth"
    # the branches that run in full first, in the forward and the backward
    order = ["rgb", *(f"hal_{r}" for r in targets), *targets]
    assert [e for e in events if e[0] == "groups"] == [("groups", order)] * cfg.stage4_steps
    if workers == 1:
        assert [e[1] for e in events if e[0] == "forward"] == order * cfg.stage4_steps


def _branch_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("branch")]


@pytest.mark.parametrize("workers", [1, 2])
def test_stage4_failures_name_their_step_and_leave_no_worker(workers, tiny_dataset,
                                                             tiny_config, monkeypatch):
    """A NaN in batch t+1's height raster fails in its prefix, during step
    t, and is raised as step t+1's; a failure of step t itself, with the
    next prefix in flight, is raised as step t's."""
    _budget(monkeypatch, workers)
    cfg = replace(TINY, stage4_steps=4)
    nan_batch = cfg.gamma.sample_batches + 2  # stage-4 step 2
    batches, prefix = PatchSampler.batches, model_mod.BranchNet.prefix
    rounds = []

    def planted(self, steps):
        for i, (batch, labels) in enumerate(batches(self, steps)):
            if self.seed == cfg.seed * 10 + 4 and i == nan_batch:
                batch = {**batch, "height": batch["height"].copy()}
                batch["height"][1, 0, 5, 7] = np.nan
            yield batch, labels

    def slow_prefix(self, x, mode="infer"):
        if self.role == "depth" and np.isnan(x).any():
            time.sleep(0.3)  # still running when step 1 fails
        return prefix(self, x, mode)

    opt_round = train_mod._optimizer_round

    def round_spy(params, *args):
        rounds.append(len(params))
        return opt_round(params, *args)

    monkeypatch.setattr(PatchSampler, "batches", planted)
    monkeypatch.setattr(model_mod.BranchNet, "prefix", slow_prefix)
    monkeypatch.setattr(train_mod, "_optimizer_round", round_spy)
    with pytest.raises(DivergenceError,
                       match="^stage4 diverged at step 2: non-finite values produced by conv2d"):
        run_protocol(tiny_dataset, tiny_config, cfg)
    # stage 4's rounds step three branches' parameters, stage 1's one branch's
    assert rounds.count(max(rounds)) == 2  # steps 0 and 1
    assert _branch_threads() == []

    objective = train_mod.composite_loss
    calls = []

    def failing_step1(*args, **kwargs):
        bd = objective(*args, **kwargs)
        calls.append(None)
        if len(calls) == cfg.gamma.sample_batches + 2:  # stage-4 step 1
            bd.total = mul(bd.total, np.float32(np.inf))
        return bd

    monkeypatch.setattr(train_mod, "composite_loss", failing_step1)
    with pytest.raises(DivergenceError,
                       match="^stage4 diverged at step 1: non-finite values produced by mul"):
        run_protocol(tiny_dataset, tiny_config, cfg)
    assert _branch_threads() == []


def test_run_waits_for_every_task_and_raises_the_first_in_order(monkeypatch):
    _budget(monkeypatch, 2)
    finished = []

    def slow_failure():
        time.sleep(0.2)
        raise KeyError("first")

    def fast_failure():
        raise IndexError("second")

    def success():
        time.sleep(0.3)
        finished.append(True)
        return 1

    with parallel.branch_workers(1 << 20) as run:
        assert run([lambda: 7, success]) == [7, 1]
        finished.clear()
        with pytest.raises(KeyError, match="first"):
            run([slow_failure, fast_failure, success])
        assert finished == [True]


def _artifacts(out_dir):
    names = ["checkpoint_stage1.ckpt", "checkpoint_stage2.ckpt", "checkpoint_stage4.ckpt",
             "train_log.jsonl"]
    return {name: (out_dir / name).read_bytes() for name in names}


def _fit_threads(monkeypatch):
    """Record the thread of every `_fit` call and every branch forward."""
    seen = {"fit": [], "forward": []}
    fit, forward = train_mod._fit, model_mod.BranchNet.forward

    def fit_spy(tag, *args, **kwargs):
        seen["fit"].append((tag, threading.current_thread()))
        return fit(tag, *args, **kwargs)

    def forward_spy(self, *args, **kwargs):
        seen["forward"].append(threading.current_thread())
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(train_mod, "_fit", fit_spy)
    monkeypatch.setattr(model_mod.BranchNet, "forward", forward_spy)
    return seen


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_protocol_does_not_depend_on_the_worker_count(mode, tiny_dataset, tiny_dataset_ir,
                                                      tiny_config, tmp_path, monkeypatch):
    dataset = tiny_dataset if mode == "single" else tiny_dataset_ir
    cfg = replace(TINY, mode=mode)
    runs = []
    for workers in (1, 2):
        with monkeypatch.context() as m:
            _budget(m, workers)
            seen = _fit_threads(m)
            run_protocol(dataset, tiny_config, cfg, out_dir=tmp_path / f"w{workers}")
        stage1 = {thread for tag, thread in seen["fit"] if tag.startswith("stage1:")}
        if workers == 1:
            assert stage1 == {threading.main_thread()}
        else:  # stage 1 and the stage-4 forwards ran on worker threads
            assert len(stage1) == 2 and threading.main_thread() not in stage1
            assert threading.main_thread() not in seen["forward"]
        runs.append(_artifacts(tmp_path / f"w{workers}"))
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], name


def test_stage4_lookahead_under_many_switching_workers(tiny_dataset_ir, tiny_config, tmp_path,
                                                     monkeypatch):
    """Four workers, more than the cores of a small machine, switching
    often, with two targets' taps computed one batch ahead: the artifacts
    are those of one thread."""
    cfg = replace(TINY, mode="multi", stage4_steps=4)
    runs = []
    interval = sys.getswitchinterval()
    for workers in (1, 4):
        with monkeypatch.context() as m:
            _budget(m, workers)
            sys.setswitchinterval(1e-5 if workers > 1 else interval)
            try:
                run_protocol(tiny_dataset_ir, tiny_config, cfg, out_dir=tmp_path / f"w{workers}")
            finally:
                sys.setswitchinterval(interval)
        runs.append(_artifacts(tmp_path / f"w{workers}"))
    assert runs[0] == runs[1]
    assert _branch_threads() == []


def test_without_a_blas_control_branches_run_in_order(tiny_dataset, tiny_config, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(parallel, "_openblas_symbols", lambda: [])
    seen = _fit_threads(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_protocol(tiny_dataset, tiny_config, TINY, out_dir=tmp_path / "seq")
    notes = [w for w in caught if "OpenBLAS" in str(w.message)]
    assert len(notes) == 1 and "one at a time" in str(notes[0].message)
    threads = {thread for _, thread in seen["fit"]} | set(seen["forward"])
    assert threads == {threading.main_thread()}


def test_a_stray_threadpoolctl_plays_no_part(tiny_dataset, tiny_config, tmp_path, monkeypatch):
    """With a threadpoolctl module in the process whose every function
    raises, HALLUCINET_THREADS still goes through OpenBLAS, and training
    writes the artifacts it writes without that module."""
    symbols = parallel._openblas_symbols()
    if not symbols:
        pytest.skip("numpy has loaded no OpenBLAS")
    run_protocol(tiny_dataset, tiny_config, TINY, out_dir=tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise RuntimeError("threadpoolctl was called")

    stray = types.ModuleType("threadpoolctl")
    stray.threadpool_info = stray.threadpool_limits = refuse
    monkeypatch.setitem(sys.modules, "threadpoolctl", stray)
    saved = [get() for get, _ in symbols]
    monkeypatch.setenv("HALLUCINET_THREADS", "1")
    try:
        assert main(["grad-check", "--points", "1"]) == 0
        assert [get() for get, _ in symbols] == [1] * len(symbols)
    finally:
        for (_, put), n in zip(symbols, saved):
            put(n)
    run_protocol(tiny_dataset, tiny_config, TINY, out_dir=tmp_path / "stray")
    assert _artifacts(tmp_path / "stray") == _artifacts(tmp_path / "plain")


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_branch_stops_training_after_every_branch_ends(workers, tiny_dataset,
                                                               tiny_config, tmp_path,
                                                               monkeypatch):
    """A stage-1 branch whose loss goes non-finite raises its own
    DivergenceError, the first in roster order, and no stage-1 checkpoint
    is written."""
    _budget(monkeypatch, workers)
    own_loss = train_mod._own_loss
    fail_at = {"depth": 1}
    steps = {}

    def breaking_loss(branch, modality, weights):
        inner = own_loss(branch, modality, weights)

        def loss_terms(batch, labels):
            terms, total, groups = inner(batch, labels)
            step = steps[branch.role] = steps.get(branch.role, -1) + 1
            if fail_at.get(branch.role) == step:
                total = mul(total, np.float32(np.inf))  # non-finite: NonFiniteError
            return terms, total, groups

        return loss_terms

    monkeypatch.setattr(train_mod, "_own_loss", breaking_loss)
    cfg = replace(TINY, stage1_steps=3)
    with pytest.raises(DivergenceError, match="^stage1:depth diverged at step 1"):
        run_protocol(tiny_dataset, tiny_config, cfg, out_dir=tmp_path / "one")
    assert steps["rgb"] == 2  # the other branch trained to its end
    assert not (tmp_path / "one" / "checkpoint_stage1.ckpt").exists()

    fail_at["rgb"] = 2
    steps.clear()
    with pytest.raises(DivergenceError, match="^stage1:rgb diverged at step 2"):
        run_protocol(tiny_dataset, tiny_config, cfg, out_dir=tmp_path / "both")
    assert not (tmp_path / "both" / "checkpoint_stage1.ckpt").exists()


def test_mmap_threshold_is_half_the_largest_activation():
    # batch 4 x 32 channels x (256 / 2)^2 float32 = 8 MiB at the default settings
    config = model_mod.BranchConfig(class_count=4)
    assert train_mod._mmap_threshold(config, TrainConfig()) == 4 << 20
    # inference takes it for the window: one 512^2 window holds as much
    assert model_mod._mmap_threshold(config, (1, 3, 512, 512)) == 4 << 20
    assert model_mod._mmap_threshold(config, (4, 3, 256, 256)) == 4 << 20


def test_openblas_is_looked_up_once_per_process(monkeypatch):
    """The mapped libraries are read once: a second look finds the first
    result, even once the maps can no longer be read."""
    found = parallel._openblas_symbols()

    def unreadable(self, *args, **kwargs):
        raise AssertionError("/proc/self/maps read again")

    monkeypatch.setattr(parallel.Path, "read_text", unreadable)
    assert parallel._openblas_symbols() is found


def _predict_roster(config):
    """The mode-multi roster, batchnorm statistics from one train-mode batch each."""
    rng = np.random.default_rng(8)
    channels = {"rgb": 3, "depth": 1, "ir": 1, "hal_depth": 3, "hal_ir": 3}
    branches = {}
    for i, (role, ch) in enumerate(channels.items()):
        branch = build_branch(config, ch, role, 20 + i)
        for unit in (u for units in branch.blocks for u in units):
            unit.state.momentum = 1.0
            unit.shift.data = rng.normal(0, 0.2, unit.shift.data.shape).astype(np.float32)
        branch.forward(rng.random((1, ch, 64, 64), dtype=np.float32), "train")
        branches[role] = branch
    bundle = model_mod.ModelBundle(config, branches,
                                   {"rgb": "color", "depth": "height", "ir": "ir"})
    inputs = {"color": rng.random((2, 3, 64, 96), dtype=np.float32),
              "height": rng.random((2, 1, 64, 96), dtype=np.float32),
              "ir": rng.random((2, 1, 64, 96), dtype=np.float32)}
    return bundle, inputs


@pytest.mark.parametrize("blocks", ["tiny", "default"])
def test_predict_does_not_depend_on_the_worker_count(blocks, tiny_config, monkeypatch):
    config = tiny_config if blocks == "tiny" else model_mod.BranchConfig(class_count=4)
    bundle, inputs = _predict_roster(config)
    runs = []
    for workers in (1, 2):
        with monkeypatch.context() as m:
            _budget(m, workers)
            seen = _fit_threads(m)
            probs = {str(av): model_mod.predict_probs(bundle, inputs, av).tobytes()
                     for av in ({}, {"depth": False}, {"depth": False, "ir": False})}
        if workers == 1:
            assert set(seen["forward"]) == {threading.main_thread()}
        else:
            assert threading.main_thread() not in seen["forward"]
        runs.append(probs)
    assert runs[0] == runs[1]


def test_predict_puts_back_every_blas_thread_count(tiny_config, monkeypatch):
    symbols = parallel._openblas_symbols()
    if not symbols:
        pytest.skip("numpy has loaded no OpenBLAS")
    _budget(monkeypatch, 2)
    bundle, inputs = _predict_roster(tiny_config)
    during = []
    forward = model_mod.BranchNet.forward

    def forward_spy(self, *args, **kwargs):
        during.append([get() for get, _ in symbols])
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(model_mod.BranchNet, "forward", forward_spy)
    saved = [get() for get, _ in symbols]
    try:
        for _, put in symbols:
            put(2)
        model_mod.predict_probs(bundle, inputs, {})
        assert [get() for get, _ in symbols] == [2] * len(symbols)
        # a branch raises inside its task: the rgb input has one channel
        wrong = {**inputs, "color": inputs["height"]}
        with pytest.raises(ValueError, match="branch rgb expects 3 channels, got 1"):
            model_mod.predict_probs(bundle, wrong, {"depth": False})
        assert [get() for get, _ in symbols] == [2] * len(symbols)
    finally:
        for (_, put), n in zip(symbols, saved):
            put(n)
    assert len(during) == 6 and all(counts == [1] * len(symbols) for counts in during)


def test_predict_runs_a_lone_branch_on_the_calling_thread(tiny_config, monkeypatch):
    """So it keeps every BLAS thread, where a worker would have one."""
    _budget(monkeypatch, 2)
    full, inputs = _predict_roster(tiny_config)
    seen = _fit_threads(monkeypatch)
    bundle = model_mod.ModelBundle(tiny_config, {"rgb": full.branches["rgb"]},
                                   {"rgb": "color"})
    probs = model_mod.predict_probs(bundle, inputs, {})
    assert seen["forward"] == [threading.main_thread()]
    with frozen(bundle.parameters()):
        logits = bundle.branches["rgb"].forward(inputs["color"]).logits
    assert probs.tobytes() == model_mod.channel_softmax(logits).data.tobytes()
