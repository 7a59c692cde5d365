"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Criteria 1-5 and 11 are oracle/property checks, and they are all this
module has. Criteria 6-10, the qualitative-ordering experiments that
train the benchmark models, are pending under ROADMAP items 1 and 5.
"""
import time

import numpy as np

from hallucinet.data import read_tensor_file, write_tensor_file
from hallucinet.evaluate import ConfusionMatrix, boundary_eroded_mask, metrics
from hallucinet.losses import ClassWeights, composite_loss, compute_class_weights
from hallucinet.model import (
    BranchOutput,
    ModelBundle,
    load_checkpoint,
    predict,
    save_checkpoint,
)

from hallucinet.engine import Tensor


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert passed, f"{criterion} failed: {detail}"


# -- criterion 1: gradient suite ----------------------------------------------

def test_criterion_1_gradient_suite():
    from hallucinet.checks import run_gradcheck_suite

    start = time.time()
    results = run_gradcheck_suite(points=10, tolerance=1e-4, seed=0)
    elapsed = time.time() - start
    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 300
    detail = f"{len(results)} ops, worst {worst:.2e}, {elapsed:.0f}s"
    report("criterion 1 (gradient suite)", ok, detail)


# -- criterion 2: metric oracle ------------------------------------------------

def test_criterion_2_metric_oracle(rng):
    conf = ConfusionMatrix(np.array([[3, 1], [1, 2]]))
    rep = metrics(conf)
    ious = rep["per_class"]["iou"]
    ok = (abs(rep["overall_accuracy"] - 5 / 7) < 1e-12
          and abs(rep["mean_class_accuracy"] - (0.75 + 2 / 3) / 2) < 1e-12
          and abs(ious[0] - 0.6) < 1e-12 and abs(ious[1] - 0.5) < 1e-12)
    identity_ok = True
    for _ in range(100):
        c = int(rng.integers(2, 7))
        counts = rng.integers(0, 60, size=(c, c)) + np.eye(c, dtype=np.int64)
        r = metrics(ConfusionMatrix(counts))["per_class"]
        for f1, iou in zip(r["f1"], r["iou"]):
            identity_ok &= abs(f1 - 2 * iou / (1 + iou)) < 1e-9
    report("criterion 2 (metric oracle)", ok and identity_ok,
           f"acc={rep['overall_accuracy']:.6f}, identity on 100 random matrices")


# -- criterion 3: erosion oracle ------------------------------------------------

def test_criterion_3_erosion_oracle(rng):
    from tests.test_evaluator import brute_force_erosion

    mismatches = 0
    for _ in range(50):
        labels = rng.integers(0, int(rng.integers(2, 5)), size=(32, 32)).astype(np.uint8)
        if rng.random() < 0.2:
            labels[rng.integers(0, 32), rng.integers(0, 32)] = 255
        if not np.array_equal(boundary_eroded_mask(labels), brute_force_erosion(labels)):
            mismatches += 1
    report("criterion 3 (erosion oracle)", mismatches == 0,
           f"{mismatches} mismatching rasters of 50")


# -- criterion 4: MFB weights ----------------------------------------------------

def test_criterion_4_mfb_weights(rng):
    w = compute_class_weights([0.5, 0.3, 0.2]).weights
    ok = np.allclose(w, [0.6, 1.0, 1.5], atol=1e-12)
    for _ in range(200):
        f = rng.uniform(0.01, 1.0, size=int(rng.integers(2, 9)))
        f = f / f.sum()
        ww = compute_class_weights(f).weights
        ok &= bool(np.all(np.abs(ww * f - np.median(f)) < 1e-12))
    report("criterion 4 (MFB weights)", ok, "w*f = median on 200 random vectors")


# -- criterion 5: loss accounting -------------------------------------------------

def test_criterion_5_loss_accounting(rng):
    def rand_out(c):
        return BranchOutput(
            tap=Tensor(rng.normal(size=(1, 2, 2, 2)), dtype=np.float64),
            logits=Tensor(rng.normal(size=(1, c, 4, 4)), dtype=np.float64))

    ok = True
    for _ in range(20):
        c = 3
        labels = rng.integers(0, c, size=(1, 4, 4))
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=c))
        gamma = float(rng.uniform(0.5, 50.0))
        for roles, count in ((("rgb", "depth", "hal_depth"), 6),
                             (("rgb", "depth", "ir", "hal_depth", "hal_ir"), 11)):
            terms, total = composite_loss({r: rand_out(c) for r in roles}, labels, weights, gamma)
            # gamma times the mimicry terms plus the rest, from the term values
            values = {name: term.item() for name, term in terms.items()}
            recomposed = (gamma * sum(v for n, v in values.items() if n.startswith("hallucinate_"))
                          + sum(v for n, v in values.items() if not n.startswith("hallucinate_")))
            ok &= len(terms) == count
            ok &= abs(total.item() - recomposed) <= 1e-6 * abs(total.item())
    report("criterion 5 (loss accounting)", ok, "6/11 terms, 1e-6 relative")


# -- criterion 11: round trips -----------------------------------------------------

def test_criterion_11_round_trips(tmp_path, rng, tiny_config):
    ok = True
    for i in range(100):
        rank = int(rng.integers(1, 5))
        shape = tuple(int(s) for s in rng.integers(1, 7, size=rank))
        arr = (rng.normal(size=shape).astype(np.float32) if i % 2 == 0
               else rng.integers(0, 256, size=shape).astype(np.uint8))
        write_tensor_file(tmp_path / "t.mtns", arr)
        back = read_tensor_file(tmp_path / "t.mtns")
        ok &= back.dtype == arr.dtype and bool(np.array_equal(back, arr))

    from hallucinet.model import build_branch, init_hallucination_from

    depth = build_branch(tiny_config, 1, "depth", 3)
    bundle = ModelBundle(tiny_config,
                         {"rgb": build_branch(tiny_config, 3, "rgb", 2),
                          "depth": depth,
                          "hal_depth": init_hallucination_from(depth, 3, 7)},
                         {"rgb": "color", "depth": "height"})
    save_checkpoint(bundle, tmp_path / "m.ckpt", "stage4")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    inputs = {"color": rng.random((1, 3, 64, 64), dtype=np.float32),
              "height": rng.random((1, 1, 64, 64), dtype=np.float32)}
    for avail in ({"depth": True}, {"depth": False}):
        ok &= bool(np.array_equal(predict(bundle, inputs, avail),
                                  predict(loaded, inputs, avail)))

    counts = rng.integers(0, 40, size=(4, 4)) + np.eye(4, dtype=np.int64)
    rep = metrics(ConfusionMatrix(counts))
    write_tensor_file(tmp_path / "conf.mtns", counts.astype(np.float32))
    regen = metrics(ConfusionMatrix(read_tensor_file(tmp_path / "conf.mtns").astype(np.int64)))
    ok &= regen == rep
    report("criterion 11 (round trips)", ok,
           "100 tensor files, checkpoint predictions, report regeneration")
