"""Objective: MFB weights, cross-entropy, mimicry loss, composites, gamma."""
import itertools
import tracemalloc

import numpy as np
import pytest

import reference_kernels
from hallucinet.engine import Tensor, backward, softmax_nll
from hallucinet.losses import (
    PROB_FLOOR,
    ClassWeights,
    GammaPolicy,
    _pixel_targets,
    calibrate_gamma,
    composite_loss,
    compute_class_weights,
    hallucination_loss,
    weighted_cross_entropy,
)
from hallucinet.model import BranchOutput, ModelBundle, select_branches


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad,
                  dtype=np.float64)


def _values(terms):
    return {name: term.item() for name, term in terms.items()}


def _recompose(values, gamma):
    """The total from the term values: gamma times the mimicry terms plus the rest."""
    return (gamma * sum(v for n, v in values.items() if n.startswith("hallucinate_"))
            + sum(v for n, v in values.items() if not n.startswith("hallucinate_")))


class TestClassWeights:
    def test_equal_frequencies_unit_weights(self):
        assert np.allclose(compute_class_weights([0.25] * 4).weights, 1.0)

    def test_reference_vector(self):
        assert np.allclose(compute_class_weights([0.5, 0.3, 0.2]).weights,
                           [0.6, 1.0, 1.5])

    def test_even_count_median(self):
        w = compute_class_weights([0.4, 0.4, 0.1, 0.1]).weights
        assert np.allclose(w, [0.625, 0.625, 2.5, 2.5])

    def test_absent_class_gets_unit_weight(self):
        # the median is over the present classes 0.5, 0.3 and 0.2
        w = compute_class_weights([0.5, 0.0, 0.3, 0.2]).weights
        assert np.allclose(w, [0.6, 1.0, 1.0, 1.5])
        assert w[1] == 1.0

    def test_weight_times_frequency_is_median(self, rng):
        for _ in range(50):
            f = rng.uniform(0.01, 1.0, size=rng.integers(2, 9))
            f = f / f.sum()
            w = compute_class_weights(f).weights
            assert np.allclose(w * f, np.median(f), atol=1e-12)

    def test_weights_positive_required(self):
        with pytest.raises(ValueError):
            ClassWeights(np.array([1.0, -0.5]))


class TestWeightedCrossEntropy:
    def test_single_pixel_equal_logits(self):
        logits = t(np.zeros((1, 2, 1, 1)))
        labels = np.zeros((1, 1, 1), dtype=np.int64)
        loss = weighted_cross_entropy(logits, labels, ClassWeights.uniform(2))
        assert loss.item() == pytest.approx(np.log(2), rel=1e-9)

    def test_perfect_prediction_loss_vanishes(self):
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 1] = 40.0
        labels = np.ones((1, 2, 2), dtype=np.int64)
        loss = weighted_cross_entropy(t(logits), labels, ClassWeights.uniform(2))
        assert loss.item() < 1e-9

    def test_weight_linearity(self, rng):
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = rng.integers(0, 3, size=(1, 2, 2))
        base = weighted_cross_entropy(t(logits), labels, ClassWeights.uniform(3)).item()
        w2 = weighted_cross_entropy(t(logits), labels,
                                    ClassWeights(np.full(3, 2.0))).item()
        assert w2 == pytest.approx(2 * base, rel=1e-9)

    def test_ignore_pixels_excluded(self, rng):
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = np.array([[[0, 255], [255, 255]]], dtype=np.int64)
        kept = weighted_cross_entropy(t(logits), labels, ClassWeights.uniform(3)).item()
        solo = weighted_cross_entropy(t(logits[:, :, :1, :1]),
                                      labels[:, :1, :1], ClassWeights.uniform(3)).item()
        assert kept == pytest.approx(solo, rel=1e-9)

    def test_all_ignored_rejected(self, rng):
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = np.full((1, 2, 2), 255, dtype=np.int64)
        with pytest.raises(ValueError):
            weighted_cross_entropy(t(logits), labels, ClassWeights.uniform(3))

    def test_uniform_weights_equal_plain_ce(self, rng):
        logits = rng.normal(size=(2, 4, 3, 3))
        labels = rng.integers(0, 4, size=(2, 3, 3))
        loss = weighted_cross_entropy(t(logits), labels, ClassWeights.uniform(4)).item()
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        ref = -np.mean(np.log(np.take_along_axis(p, labels[:, None], 1)[:, 0]))
        assert loss == pytest.approx(ref, rel=1e-9)


class TestHallucinationLoss:
    def test_identical_taps_zero(self, rng):
        a = rng.normal(size=(1, 2, 3, 3))
        assert hallucination_loss(t(a), t(a.copy())).item() == 0.0

    def test_closed_form_value(self):
        loss = hallucination_loss(t([[0.0]]), t([[np.log(3.0)]]))
        assert loss.item() == pytest.approx(0.0625, abs=1e-12)

    def test_value_symmetric(self, rng):
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        assert hallucination_loss(t(a), t(b)).item() == pytest.approx(
            hallucination_loss(t(b), t(a)).item(), rel=1e-12)

    def test_stop_gradient_on_target(self, rng):
        target = t(rng.normal(size=(1, 2, 2, 2)), grad=True)
        hal = t(rng.normal(size=(1, 2, 2, 2)), grad=True)
        backward(hallucination_loss(target, hal))
        assert target.grad is None
        assert hal.grad is not None and np.any(hal.grad != 0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            hallucination_loss(t(np.ones((1, 2))), t(np.ones((1, 3))))


def _outputs_single(rng, copies=False):
    mk = lambda: rng.normal(size=(1, 3, 4, 4))
    tap = lambda: rng.normal(size=(1, 2, 2, 2))
    depth_tap, depth_logits = tap(), mk()
    out = {
        "rgb": BranchOutput(tap=t(tap()), logits=t(mk())),
        "depth": BranchOutput(tap=t(depth_tap), logits=t(depth_logits)),
    }
    if copies:
        out["hal_depth"] = BranchOutput(tap=t(depth_tap.copy()), logits=t(depth_logits.copy()))
    else:
        out["hal_depth"] = BranchOutput(tap=t(tap()), logits=t(mk()))
    labels = rng.integers(0, 3, size=(1, 4, 4))
    return out, labels, ClassWeights.uniform(3)


class TestCompositeSingle:
    def test_term_names_and_count(self, rng):
        out, labels, w = _outputs_single(rng)
        bd = composite_loss(out, labels, w, 2.0)
        assert set(bd.terms) == {"hallucinate_depth", "depth", "rgb", "hal_depth",
                                 "rgb+depth", "rgb+hal_depth"}
        assert len(bd.terms) == 6

    def test_hal_copy_collapses_terms(self, rng):
        out, labels, w = _outputs_single(rng, copies=True)
        vals = _values(composite_loss(out, labels, w, 2.0).terms)
        assert vals["hallucinate_depth"] == 0.0
        assert vals["rgb+hal_depth"] == pytest.approx(vals["rgb+depth"], rel=1e-9)

    def test_gamma_zero_drops_mimicry(self, rng):
        out, labels, w = _outputs_single(rng)
        terms, total = composite_loss(out, labels, w, 0.0)
        vals = _values(terms)
        expect = sum(v for k, v in vals.items() if not k.startswith("hallucinate"))
        assert total.item() == pytest.approx(expect, rel=1e-6)

    def test_saturated_predictions_leave_only_mimicry(self, rng):
        labels = rng.integers(0, 3, size=(1, 4, 4))
        saturated = np.full((1, 3, 4, 4), -30.0)
        np.put_along_axis(saturated, labels[:, None], 30.0, axis=1)
        out = {r: BranchOutput(tap=t(rng.normal(size=(1, 2, 2, 2))),
                               logits=t(saturated.copy()))
               for r in ("rgb", "depth", "hal_depth")}
        gamma = 3.0
        terms, total = composite_loss(out, labels, ClassWeights.uniform(3), gamma)
        assert total.item() == pytest.approx(gamma * terms["hallucinate_depth"].item(),
                                             rel=1e-6)

    def test_total_recomposition(self, rng):
        out, labels, w = _outputs_single(rng)
        terms, total = composite_loss(out, labels, w, 7.3)
        assert total.item() == pytest.approx(_recompose(_values(terms), 7.3), rel=1e-6)

    def test_missing_branch_rejected(self, rng):
        out, labels, w = _outputs_single(rng)
        del out["hal_depth"]
        with pytest.raises(ValueError):
            composite_loss(out, labels, w, 1.0)

    def test_backward_flows_to_logits(self, rng):
        out, labels, w = _outputs_single(rng)
        probe = Tensor(out["rgb"].logits.data.copy(), requires_grad=True,
                       dtype=np.float64)
        out["rgb"] = BranchOutput(tap=out["rgb"].tap, logits=probe)
        _, total = composite_loss(out, labels, w, 2.0)
        backward(total)
        assert probe.grad is not None and np.any(probe.grad != 0)


class TestCompositeMulti:
    ROLES = ("rgb", "depth", "ir", "hal_depth", "hal_ir")

    def _outputs(self, rng, copies=False):
        out = {}
        for role in ("rgb", "depth", "ir"):
            out[role] = BranchOutput(tap=t(rng.normal(size=(1, 2, 2, 2))),
                                     logits=t(rng.normal(size=(1, 3, 4, 4))))
        for role, src in (("hal_depth", "depth"), ("hal_ir", "ir")):
            if copies:
                out[role] = BranchOutput(tap=t(out[src].tap.data.copy()),
                                         logits=t(out[src].logits.data.copy()))
            else:
                out[role] = BranchOutput(tap=t(rng.normal(size=(1, 2, 2, 2))),
                                         logits=t(rng.normal(size=(1, 3, 4, 4))))
        return out, rng.integers(0, 3, size=(1, 4, 4)), ClassWeights.uniform(3)

    def test_eleven_terms(self, rng):
        out, labels, w = self._outputs(rng)
        bd = composite_loss(out, labels, w, 2.0)
        assert len(bd.terms) == 11
        assert set(bd.terms) == {
            "hallucinate_ir", "hallucinate_depth", "ir", "depth", "rgb",
            "hal_depth", "hal_ir", "rgb+depth+hal_ir", "rgb+hal_depth+ir",
            "rgb+depth+ir", "rgb+hal_depth+hal_ir"}

    def test_copies_collapse_joint_terms(self, rng):
        out, labels, w = self._outputs(rng, copies=True)
        vals = _values(composite_loss(out, labels, w, 2.0).terms)
        assert vals["hallucinate_ir"] == 0.0
        assert vals["hallucinate_depth"] == 0.0
        ref = vals["rgb+depth+ir"]
        for key in ("rgb+depth+hal_ir", "rgb+hal_depth+ir", "rgb+hal_depth+hal_ir"):
            assert vals[key] == pytest.approx(ref, rel=1e-9)

    def test_identical_logits_equalize_ce_terms(self, rng):
        shared_logits = rng.normal(size=(1, 3, 4, 4))
        out = {}
        for role in self.ROLES:
            out[role] = BranchOutput(tap=t(rng.normal(size=(1, 2, 2, 2))),
                                     logits=t(shared_logits.copy()))
        labels = rng.integers(0, 3, size=(1, 4, 4))
        vals = _values(composite_loss(out, labels, ClassWeights.uniform(3), 1.0).terms)
        ce_terms = [v for k, v in vals.items() if not k.startswith("hallucinate")]
        assert np.allclose(ce_terms, ce_terms[0], rtol=1e-9)

    def test_gamma_shared_between_mimicry_terms(self, rng):
        out, labels, w = self._outputs(rng)
        gamma = 5.0
        terms, total = composite_loss(out, labels, w, gamma)
        vals = _values(terms)
        expect = gamma * (vals["hallucinate_ir"] + vals["hallucinate_depth"]) + sum(
            v for k, v in vals.items() if not k.startswith("hallucinate"))
        assert total.item() == pytest.approx(expect, rel=1e-6)


def test_objective_holds_no_class_sized_array_per_term(rng):
    # between forward and backward, each cross-entropy term of the k=2
    # objective may keep two (N,H,W) arrays, and the terms may share four
    # more (N,H,W) arrays; the softmax is rebuilt in backward
    n, c, h, w = 2, 4, 64, 64
    roles = ("rgb", "depth", "ir", "hal_depth", "hal_ir")
    out = {r: BranchOutput(tap=Tensor(rng.normal(size=(1, 2, 2, 2)).astype(np.float32),
                                      requires_grad=True),
                           logits=Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32),
                                         requires_grad=True))
           for r in roles}
    labels = rng.integers(0, c, size=(n, h, w))
    tracemalloc.start()
    try:
        terms, _ = composite_loss(out, labels, ClassWeights.uniform(c), 2.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ce_terms = sum(not name.startswith("hallucinate_") for name in terms)
    class_bytes, pixel_bytes = 4 * n * c * h * w, 4 * n * h * w
    assert ce_terms == 9
    assert held < class_bytes + ce_terms * 2 * pixel_bytes + 4 * pixel_bytes


def test_loss_nodes_keep_no_array_between_forward_and_backward(rng):
    # beside the label targets it shares with the other terms, a
    # cross-entropy node keeps less than one (N,H,W) array, and a mimicry
    # node less than one tap-sized array: backward rebuilds what it reads
    n, c, h, w = 2, 4, 64, 64
    logits = Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32), requires_grad=True)
    targets = _pixel_targets(rng.integers(0, c, size=(n, h, w)), ClassWeights.uniform(c), logits)
    taps = [Tensor(rng.normal(size=(n, 8, h, w)).astype(np.float32), requires_grad=True)
            for _ in range(2)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ce = softmax_nll([logits], *targets, PROB_FLOOR)
        ce_held = tracemalloc.get_traced_memory()[0] - base
        mimicry = hallucination_loss(*taps)
        mimicry_held = tracemalloc.get_traced_memory()[0] - base - ce_held
    finally:
        tracemalloc.stop()
    assert ce_held < 4 * n * h * w, ce_held
    assert mimicry_held < taps[0].data.nbytes, mimicry_held
    backward(ce + mimicry)
    assert logits.grad.shape == logits.shape and taps[1].grad.shape == taps[1].shape


def test_benchmark_probe_names():
    # perfbench --trace 1 wraps both names by object identity: one is the
    # objective itself and the other a distinct object, so it is wrapped once
    from hallucinet import losses

    assert losses.composite_loss_single is composite_loss
    assert losses.composite_loss_multi is not composite_loss
    assert losses.composite_loss_multi.func is composite_loss


def _fake_outputs(rng, roles):
    """float64 rgb, real and hal_ outputs for the optional `roles`."""
    names = ["rgb", *roles, *(f"hal_{r}" for r in roles)]
    return {n: BranchOutput(tap=t(rng.normal(size=(1, 2, 2, 2))),
                            logits=t(rng.normal(size=(2, 3, 4, 4)) * 2))
            for n in names}


def _ce_ref(logits, labels, weights):
    """Weighted mean of -log softmax at the true class, in numpy."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    w = weights.weights[labels]
    return -np.sum(w * np.take_along_axis(logp, labels[:, None], 1)[:, 0]) / labels.size


class TestGenerator:
    """The roster-driven objective at k = 1, 2, 3 optional roles."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_term_counts_and_names(self, rng, k):
        roles = ("depth", "ir", "extra")[:k]
        out = _fake_outputs(rng, roles)
        labels = rng.integers(0, 3, size=(2, 4, 4))
        names = list(composite_loss(out, labels, ClassWeights.uniform(3), 2.0).terms)
        assert len(names) == len(set(names)) == k + (2 * k + 1) + 2 ** k
        assert names[:k] == [f"hallucinate_{r}" for r in roles]
        assert names[k:3 * k + 1] == [*roles, "rgb", *(f"hal_{r}" for r in roles)]
        assert all("+" in n for n in names[3 * k + 1:])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fusions_are_the_routed_rosters(self, rng, k):
        roles = ("depth", "ir", "extra")[:k]
        out = _fake_outputs(rng, roles)
        labels = rng.integers(0, 3, size=(2, 4, 4))
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
        vals = _values(composite_loss(out, labels, weights, 2.0).terms)
        bundle = ModelBundle(None, dict.fromkeys(out),
                             {"rgb": "color", **{r: f"mod_{r}" for r in roles}})
        routed = {"+".join(select_branches(bundle, dict(zip(roles, pattern))))
                  for pattern in itertools.product((True, False), repeat=k)}
        assert routed == {n for n in vals if "+" in n}
        for name in routed:
            fused = np.mean([out[b].logits.data for b in name.split("+")], axis=0)
            assert vals[name] == pytest.approx(_ce_ref(fused, labels, weights), rel=1e-12)

    @pytest.mark.parametrize("k, reference, names", [
        (1, reference_kernels.composite_loss_single, reference_kernels.SINGLE_NAMES),
        (2, reference_kernels.composite_loss_multi, reference_kernels.MULTI_NAMES),
    ])
    def test_matches_hand_written_rosters(self, rng, k, reference, names):
        roles = ("depth", "ir")[:k]
        arrays = _fake_outputs(rng, roles)
        labels = rng.integers(0, 3, size=(2, 4, 4))
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
        gamma = float(rng.uniform(0.5, 50.0))

        def run(objective, keys):
            out = {keys.get(n, n): BranchOutput(tap=t(o.tap.data, True),
                                                logits=t(o.logits.data, True))
                   for n, o in arrays.items()}
            terms, total = objective(out, labels, weights, gamma)
            backward(total)
            vals = {names.get(n, n): v for n, v in _values(terms).items()}
            grads = {n: (out[keys.get(n, n)].tap.grad, out[keys.get(n, n)].logits.grad)
                     for n in arrays}
            return total.item(), vals, grads

        total, vals, grads = run(composite_loss, {})
        # the single reference names the hallucination branch plain "hal"
        ref_total, ref_vals, ref_grads = run(reference, {"hal_depth": "hal"} if k == 1 else {})
        assert total == pytest.approx(ref_total, rel=1e-12)
        assert set(vals) == set(ref_vals)
        for n, v in ref_vals.items():
            assert vals[n] == pytest.approx(v, rel=1e-12)
        for n, (tap_ref, logit_ref) in ref_grads.items():
            tap, logit = grads[n]
            assert (tap is None) == (tap_ref is None)
            for g, g_ref in ((tap, tap_ref), (logit, logit_ref)):
                if g_ref is not None:
                    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()


class TestGamma:
    def test_reference_rule(self):
        # the mimicry terms count by their sum, 0.5
        values = {"hallucinate_ir": 0.25, "hallucinate_depth": 0.25, "rgb": 2.0, "depth": 1.0}
        gamma = calibrate_gamma(values, GammaPolicy())
        assert gamma == pytest.approx(40.0)

    def test_equal_terms_give_multiplier(self):
        gamma = calibrate_gamma({"hallucinate_depth": 2.0, "rgb": 2.0}, GammaPolicy())
        assert gamma == pytest.approx(10.0)

    def test_defining_property(self, rng):
        hal = float(rng.uniform(0.1, 2.0))
        others = list(rng.uniform(0.1, 3.0, size=4))
        values = {"hallucinate_depth": hal} | {f"term{i}": v for i, v in enumerate(others)}
        gamma = calibrate_gamma(values, GammaPolicy())
        assert gamma * hal == pytest.approx(10.0 * max(others), rel=1e-12)

    def test_zero_mimicry_warns_and_defaults(self):
        with pytest.warns(UserWarning):
            gamma = calibrate_gamma({"hallucinate_depth": 0.0, "rgb": 1.0}, GammaPolicy())
        assert gamma == 1.0

    def test_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            GammaPolicy(multiplier=0.0)

    @pytest.mark.parametrize("multiplier", [float("inf"), float("nan")])
    def test_multiplier_must_be_finite(self, multiplier):
        # an infinite multiplier would give an infinite gamma
        with pytest.raises(ValueError, match="train.gamma.multiplier must be finite and positive"):
            GammaPolicy(multiplier=multiplier)

    @pytest.mark.parametrize("batches", [0, -3])
    def test_sample_batches_must_be_positive(self, batches):
        with pytest.raises(ValueError, match="sample batches"):
            GammaPolicy(sample_batches=batches)
