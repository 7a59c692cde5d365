"""Branch workers: the split backward, the worker pool, and training that
does not depend on the worker count."""
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import hallucinet.model as model_mod
import hallucinet.parallel as parallel
import hallucinet.train as train_mod
from hallucinet.data import PatchSpec
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


def test_without_a_blas_control_branches_run_in_order(tiny_dataset, tiny_config, tmp_path,
                                                      monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(parallel, "_openblas_symbols", lambda: [])
    seen = _fit_threads(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_protocol(tiny_dataset, tiny_config, TINY, out_dir=tmp_path / "seq")
    notes = [w for w in caught if "threadpoolctl" in str(w.message)]
    assert len(notes) == 1 and "one at a time" in str(notes[0].message)
    threads = {thread for _, thread in seen["fit"]} | set(seen["forward"])
    assert threads == {threading.main_thread()}


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
