"""Forward pass, exact gradients vs. finite differences, AdamW, and the
training loop."""

import gc
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import forward_cache, int64_coords, make_pset
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgpan.data import (
    PrototypeSet,
    SlideRecord,
    SyntheticConfig,
    gen_synthetic,
)
from fgpan.params import grad_zeros, init_params
from fgpan.training import (
    _STACK_ROWS,
    TrainConfig,
    _slope,
    _sigmoid,
    _stacks,
    adamw_step,
    desk_profile,
    finite_diff_check,
    forward_slide,
    forward_slides,
    grad_total_loss,
    paper_profile,
    random_instance,
    total_loss,
    train,
)


def worst_error(slides, params, pset, lam=1.0):
    """The largest relative error in finite_diff_check's report."""
    return max(finite_diff_check(slides, params, pset, lam).values())


def tiny_corpus(classes=2, sigma=0.0, rho=1.0, m=9, d=8, seed=1, slides_per_class=2):
    cfg = SyntheticConfig(
        classes=classes, slides_per_class=slides_per_class, patches_per_slide=m,
        dim=d, signal_fraction=rho, noise_sigma=sigma, grid_rows=4, grid_cols=4,
        seed=seed,
    )
    return gen_synthetic(cfg)


class TestForward:
    def test_identity_pipeline_noise_free_is_confident(self):
        """sigma=0, rho=1, C=2: raw patches sit exactly on the prototype, so
        the cosine margin is 1 and softmax at tau=0.07 leaves less than 1e-6
        probability elsewhere."""
        slides, pset = tiny_corpus(classes=2)
        params = init_params(8, 2, 2, seed=0)
        for s in slides:
            _, pred = forward_slide(s, params, pset, lwa_gff=False)
            assert pred.predicted == s.label
            assert pred.P[s.label] > 1.0 - 1e-6

    def test_forward_is_pure(self):
        slides, pset = tiny_corpus(sigma=0.2, rho=0.6)
        params = init_params(8, 2, 2, seed=3)
        _, a = forward_slide(slides[0], params, pset)
        _, b = forward_slide(slides[0], params, pset)
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_single_patch_slide(self):
        slides, pset = tiny_corpus(m=1)
        params = init_params(8, 2, 2, seed=0)
        probs, pred = forward_slide(slides[0], params, pset)
        assert probs.shape == (1, pset.n_classes)
        np.testing.assert_array_equal(pred.alpha, [1.0])
        np.testing.assert_allclose(pred.P, probs[0], atol=1e-15)

    def test_fresh_params_give_uniform_alpha(self):
        slides, pset = tiny_corpus(m=9, sigma=0.3, rho=0.5)
        params = init_params(8, 2, 2, seed=5)
        _, pred = forward_slide(slides[0], params, pset)
        np.testing.assert_allclose(pred.alpha, 1.0 / 9.0, atol=1e-15)

    def test_prototype_rescale_is_invisible(self):
        """Scaling all prototype embeddings then re-normalizing changes nothing."""
        from fgpan.prototypes import normalize_prototypes

        slides, pset = tiny_corpus(sigma=0.2, rho=0.6)
        scaled = PrototypeSet(pset.names, pset.descriptions, 5.0 * pset.matrix())
        params = init_params(8, 2, 2, seed=1)
        _, a = forward_slide(slides[0], params, pset)
        _, b = forward_slide(slides[0], params, normalize_prototypes(scaled))
        np.testing.assert_allclose(b.P, a.P, atol=1e-12)


class TestTotalLoss:
    def test_lambda_zero_is_patch_ce_only(self):
        """With the refinement off, the total loss at lambda=0 must equal an
        independently coded prototype-cosine cross entropy."""
        slides, pset = tiny_corpus(sigma=0.3, rho=0.5, m=8)
        params = init_params(8, 2, 2, seed=2)
        got = total_loss(slides, params, pset, 0.0, lwa_gff=False)

        # independent reference: cosine -> softmax(s/tau) -> mean -ln p_y
        t = pset.matrix()
        tau = params.temp.tau
        ref_total = 0.0
        for s in slides:
            f = s.matrix()
            cos = (f / np.linalg.norm(f, axis=1, keepdims=True)) @ t.T
            z = cos / tau
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            ref_total += float(-np.log(p[:, s.label]).mean())
        assert abs(got - ref_total / len(slides)) < 1e-12

    def test_confident_limit_is_zero(self):
        """tau -> 0 with exact prototypes drives both CE terms to exactly 0."""
        slides, pset = tiny_corpus(classes=2)
        params = init_params(8, 2, 2, seed=0, tau0=1e-3)
        assert total_loss(slides, params, pset, 1.0, lwa_gff=False) == 0.0

    def test_linear_in_lambda(self):
        slides, pset = tiny_corpus(sigma=0.2, rho=0.6)
        params = init_params(8, 2, 2, seed=4)
        l0 = total_loss(slides, params, pset, 0.0)
        l1 = total_loss(slides, params, pset, 1.0)
        l2 = total_loss(slides, params, pset, 2.0)
        assert abs((l2 - l1) - (l1 - l0)) < 1e-12

    def test_non_negative(self):
        for seed in range(5):
            slides, pset, params = random_instance(seed)
            assert total_loss(slides, params, pset, 1.0) >= 0.0

    def test_grad_pass_returns_total_loss(self):
        for lwa_gff in (True, False):
            slides, pset, params = random_instance(7, randomize_params=True)
            loss, _ = grad_total_loss(slides, params, pset, 1.0, lwa_gff=lwa_gff)
            assert loss == total_loss(slides, params, pset, 1.0, lwa_gff=lwa_gff)

    def test_unlabeled_slide_rejected(self):
        slides, pset = tiny_corpus()
        bare = SlideRecord(
            "u", None, slides[0].coords(), slides[0].matrix(),
            slides[0].grid_rows, slides[0].grid_cols,
        )
        params = init_params(8, 2, 2, seed=0)
        with pytest.raises(ValueError, match="unlabeled"):
            total_loss([bare], params, pset, 1.0)

    @pytest.mark.parametrize("run", [
        lambda sl, pa, ps: forward_slides(sl, pa, ps),
        lambda sl, pa, ps: total_loss(sl, pa, ps, 1.0),
        lambda sl, pa, ps: grad_total_loss(sl, pa, ps, 1.0),
        lambda sl, pa, ps: train(sl, desk_profile(iterations=1), ps, params=pa),
    ], ids=["forward_slides", "total_loss", "grad_total_loss", "train"])
    def test_dim_mismatch_named(self, run):
        """A slide wider than the params is refused by name in every pass,
        not with numpy's matmul error."""
        slides, pset, _ = random_instance(0, dim=8)
        params = init_params(4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="^slide dim 8 does not match params dim 4$"):
            run(slides, params, pset)


class TestGradients:
    def test_matches_finite_differences(self):
        slides, pset, params = random_instance(0)
        assert worst_error(slides, params, pset) <= 1e-5

    def test_matches_finite_differences_learned_table(self):
        slides, pset, params = random_instance(1, pos_mode="learned_table")
        assert worst_error(slides, params, pset) <= 1e-5

    @pytest.mark.parametrize("pos_mode", ["sinusoidal", "learned_table"])
    def test_matches_finite_differences_at_randomized_point(self, pos_mode):
        """Randomized parameters put nonzero flow through paths that are
        gradient-dead at fresh init (gates, aggregation w, learned table)."""
        slides, pset, params = random_instance(
            4, pos_mode=pos_mode, randomize_params=True
        )
        assert worst_error(slides, params, pset) <= 1e-5

    @pytest.mark.parametrize("tau", [1e-3, 10.0])
    @pytest.mark.parametrize("pos_mode", ["sinusoidal", "learned_table"])
    def test_matches_finite_differences_at_extreme_tau(self, tau, pos_mode):
        slides, pset, params = random_instance(0, pos_mode=pos_mode)
        params.temp.log_tau = math.log(tau)
        assert worst_error(slides, params, pset) <= 1e-5

    @pytest.mark.parametrize("pos_mode", ["sinusoidal", "learned_table"])
    def test_matches_finite_differences_at_near_one_hot_alpha(self, pos_mode):
        """Scaled-up aggregation weights put more than 0.95 of every
        slide's alpha on one patch."""
        slides, pset, params = random_instance(2, pos_mode=pos_mode, randomize_params=True)
        params.agg.w *= 15.0
        for s in slides:
            cache = forward_cache(s.matrix(), s.coords(), params, pset.matrix())
            assert cache["alpha"].max() > 0.95
        assert worst_error(slides, params, pset) <= 1e-5

    def test_resolves_small_gradients_at_lambda_0(self):
        """An instance where a plain central difference at step 1e-4 read
        2.0e-4 on correct gradients; the extrapolated stencil reads 4.2e-6."""
        slides, pset, params = random_instance(
            163, dim=3, window_size=2, heads=2, patches=3, grid_rows=2, grid_cols=5,
            pos_mode="learned_table", randomize_params=True,
        )
        assert worst_error(slides, params, pset, lam=0.0) <= 1e-5

    @pytest.mark.parametrize("dim", [8, 64], ids=["every_scalar", "directional"])
    def test_planted_fault_is_named(self, monkeypatch, dim):
        """One leaf's gradient scaled by 1.001 fails the check, and the
        report's worst leaf is that one: at d=8 every scalar is checked, and
        at d=64 (over finite_diff_check's 5000-scalar limit) one direction
        per leaf and one over theta are."""
        import fgpan.training as training

        slides, pset, params = random_instance(0, dim=dim, randomize_params=True)
        assert (params.n_scalars > 5000) == (dim == 64)
        exact = training.grad_total_loss

        def faulty(*args, **kwargs):
            loss, grads = exact(*args, **kwargs)
            grads.fusion.W_f = 1.001 * grads.fusion.W_f
            return loss, grads

        monkeypatch.setattr(training, "grad_total_loss", faulty)
        report = finite_diff_check(slides, params, pset, 1.0)
        assert ("theta" in report) == (dim == 64)
        assert max(report, key=report.get) == "fusion.W_f"
        assert report["fusion.W_f"] > 1e-5

    def test_finite_at_tiny_tau(self):
        """At tau = 1e-3 under randomized parameters p_slide[y] underflows to
        0; the log-space slide term keeps the loss and every gradient finite.
        Divide-by-zero, overflow and invalid operations raise; underflow to 0
        is the softmax saturating and is allowed."""
        slides, pset, params = random_instance(0, randomize_params=True)
        params.temp.log_tau = math.log(1e-3)
        with np.errstate(all="raise", under="ignore"):
            loss, grads = grad_total_loss(slides, params, pset, 1.0)
            assert loss == total_loss(slides, params, pset, 1.0)
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grads.flatten()))

    def test_deterministic(self):
        slides, pset, params = random_instance(2)
        loss_a, a = grad_total_loss(slides, params, pset, 1.0)
        loss_b, b = grad_total_loss(slides, params, pset, 1.0)
        assert loss_a == loss_b
        np.testing.assert_array_equal(a.flatten(), b.flatten())

    def test_unused_table_rows_get_zero_gradient(self):
        """Learned-table rows for grid cells no patch occupies never move."""
        slides, pset, params = random_instance(3, pos_mode="learned_table")
        _, grads = grad_total_loss(slides, params, pset, 1.0)
        used = set()
        for s in slides:
            for r, c in s.coords():
                used.add(int(r) * 4 + int(c))
        unused = [i for i in range(16) if i not in used]
        assert unused, "fixture should leave some grid cells empty"
        np.testing.assert_array_equal(grads["agg.table"][unused], 0.0)

    def test_ablation_off_freezes_refinement_params(self):
        slides, pset, params = random_instance(4)
        _, grads = grad_total_loss(slides, params, pset, 1.0, lwa_gff=False)
        for name, g in grads.leaves():
            if name.startswith(("lwa.", "gates.", "fusion.")):
                np.testing.assert_array_equal(g, 0.0)
        assert np.any(grads["agg.w"] != 0.0) or np.any(grads["temp.log_tau"] != 0.0)

    def test_slope_on_quartic(self):
        """The checker's own stencil: Richardson extrapolation cancels the
        h^2 term of a central difference, which is all of its truncation
        error on a quartic, so d/dx x^4 at 1 is 4 to rounding even at the
        default step."""

        def f(vec):
            return float(vec[0] ** 4)

        got = _slope(f, np.array([1.0]), np.array([1.0]), 1e-2)
        assert abs(got - 4.0) < 1e-12

    def test_zero_step_rejected(self):
        slides, pset, params = random_instance(5)
        with pytest.raises(ValueError, match="positive"):
            finite_diff_check(slides, params, pset, 1.0, 0.0)


@st.composite
def batch_specs(draw):
    """A batch as plain values: per-slide (patches, grid_rows, grid_cols).
    Small and large slides mix, so some batches overflow one stack."""
    slides = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.one_of(st.integers(1, 64), st.integers(256, 700)))
        rows = draw(st.integers(-(-m // 36), 36))
        cols = draw(st.integers(-(-m // rows), 36))
        slides.append((m, rows, cols))
    return dict(
        slides=slides,
        window_size=draw(st.integers(1, 3)),
        pos_mode=draw(st.sampled_from(["sinusoidal", "learned_table"])),
        lam=draw(st.sampled_from([0.0, 1.0])),
        lwa_gff=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build_batch(spec, dim=4, classes=3):
    """Seeded slides, prototypes and randomized params for a batch spec."""
    rng = np.random.default_rng(spec["seed"])
    slides = []
    for j, (m, rows, cols) in enumerate(spec["slides"]):
        cells = np.sort(rng.choice(rows * cols, size=m, replace=False))
        slides.append(SlideRecord(
            f"b{j}", int(rng.integers(classes)), np.stack(np.divmod(cells, cols), axis=1),
            rng.standard_normal((m, dim)), rows, cols,
        ))
    params = init_params(
        dim, spec["window_size"], 2, seed=0, pos_mode=spec["pos_mode"],
        grid_rows=max(r for _, r, _ in spec["slides"]),
        grid_cols=max(c for _, _, c in spec["slides"]),
    )
    params = params.with_flat(params.flatten() + 0.3 * rng.standard_normal(params.n_scalars))
    raw = rng.standard_normal((classes, dim))
    return slides, make_pset(raw / np.linalg.norm(raw, axis=1, keepdims=True)), params


class TestStacks:
    def test_grouping(self):
        sizes = [400, 500, 300, 1100, 600, 424, 1]
        slides = [
            SlideRecord(f"s{j}", 0, np.stack(np.divmod(np.arange(m), 40), axis=1),
                        np.ones((m, 1)), 40, 40)
            for j, m in enumerate(sizes)
        ]
        assert _STACK_ROWS == 1024
        got = [[s.n_patches for s in stack] for stack in _stacks(slides)]
        assert got == [[400, 500], [300], [1100], [600, 424], [1]]

    @settings(max_examples=40)
    @given(batch_specs())
    @example(dict(  # stacks of 900, 300 and 1100 (alone, over the budget) rows
        slides=[(400, 32, 32), (500, 30, 20), (300, 25, 25), (1100, 36, 36)],
        window_size=2, pos_mode="learned_table", lam=1.0, lwa_gff=True, seed=7,
    ))
    def test_stacked_batch_equals_mean_of_singletons(self, spec):
        """total_loss and every gradient leaf of a batch, run as stacks,
        equal the mean over one-slide batches to 1e-12 relative."""
        slides, pset, params = build_batch(spec)
        lam, lwa_gff = spec["lam"], spec["lwa_gff"]
        loss, grads = grad_total_loss(slides, params, pset, lam, lwa_gff=lwa_gff)
        singles = [grad_total_loss([s], params, pset, lam, lwa_gff=lwa_gff) for s in slides]
        want = sum(l for l, _ in singles) / len(slides)
        assert abs(loss - want) <= 1e-12 * abs(want)
        assert abs(total_loss(slides, params, pset, lam, lwa_gff=lwa_gff) - want) <= (
            1e-12 * abs(want)
        )
        for name, got in grads.leaves():
            mean = sum(g[name] for _, g in singles) / len(slides)
            scale = np.abs(mean).max()
            assert np.abs(got - mean).max() <= 1e-12 * scale, name


@st.composite
def infer_specs(draw):
    """A batch spec for forward_slides: small and mid-size slides that fill
    several stacks, with one slide larger than _STACK_ROWS among them."""
    slides = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.one_of(st.integers(1, 64), st.integers(256, 700)))
        rows = draw(st.integers(-(-m // 40), 40))
        slides.append((m, rows, draw(st.integers(-(-m // rows), 40))))
    big = draw(st.integers(_STACK_ROWS + 1, 1300))
    slides.insert(draw(st.integers(0, len(slides))), (big, 40, draw(st.integers(33, 40))))
    return dict(
        slides=slides,
        window_size=draw(st.sampled_from([1, 2, 3])),
        pos_mode=draw(st.sampled_from(["sinusoidal", "learned_table"])),
        lwa_gff=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestForwardSlides:
    @settings(max_examples=30)
    @given(infer_specs())
    @example(dict(  # stacks of 64 + 48 + 700, the 1100-row slide alone, then 5 + 1 rows
        slides=[(64, 8, 8), (48, 8, 8), (700, 30, 30), (1100, 40, 40), (5, 3, 3), (1, 1, 1)],
        window_size=3, pos_mode="learned_table", lwa_gff=True, seed=11,
    ))
    def test_equals_forward_slide_per_slide(self, spec):
        """Each slide's p, alpha, P and predicted from one forward_slides
        call equal its own forward_slide: bitwise for a slide that is a
        stack of its own (the same pass), and to 1e-12 relative in a shared
        stack, where a product's row count can move the last bits."""
        slides, pset, params = build_batch(spec)
        stacks = _stacks(slides)
        assert len(stacks) >= 2
        alone = {id(stack[0]) for stack in stacks if len(stack) == 1}
        got = forward_slides(slides, params, pset, lwa_gff=spec["lwa_gff"])
        assert len(got) == len(slides)
        for s, (p, pred) in zip(slides, got):
            want_p, want = forward_slide(s, params, pset, lwa_gff=spec["lwa_gff"])
            assert pred.predicted == want.predicted, s.slide_id
            pairs = [(p, want_p), (pred.alpha, want.alpha), (pred.P, want.P)]
            for a, b in pairs:
                assert a.shape == b.shape
                if id(s) in alone:
                    assert a.tobytes() == b.tobytes(), s.slide_id
                else:
                    assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b)), s.slide_id

    def test_empty_batch(self):
        _, pset, params = random_instance(0)
        assert forward_slides([], params, pset) == []

    @settings(max_examples=20)
    @given(st.lists(int64_coords(), min_size=2, max_size=4), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    @example([np.array([(2**63 - 2, 0), (2**63 - 2, 1), (2**63 - 1, 0)])] * 3, 2, 0)
    def test_stack_of_slides_near_int64_max(self, coords, s, seed):
        """Slides whose coordinates reach int64's maximum, where the
        stacked grid's bands would pass int64, share a stack and get what
        each gets alone: the same windows, so p and alpha agree to 1e-12
        relative."""
        rng = np.random.default_rng(seed)
        slides = [SlideRecord(f"s{j}", 0, c, rng.standard_normal((len(c), 4)))
                  for j, c in enumerate(coords)]
        assert len(_stacks(slides)) == 1
        params = init_params(4, s, 2, seed=0)
        params = params.with_flat(params.flatten() + 0.3 * rng.standard_normal(params.n_scalars))
        pset = make_pset(np.eye(4)[:2])
        for slide, (p, pred) in zip(slides, forward_slides(slides, params, pset)):
            want_p, want = forward_slide(slide, params, pset)
            for a, b in ((p, want_p), (pred.alpha, want.alpha)):
                assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b)), slide.slide_id

    @pytest.mark.parametrize("pass_fn", [lambda sl, p, ps: forward_slides(sl, p, ps),
                                         lambda sl, p, ps: total_loss(sl, p, ps, 1.0),
                                         lambda sl, p, ps: grad_total_loss(sl, p, ps, 1.0)],
                             ids=["forward_slides", "total_loss", "grad_total_loss"])
    def test_fold_and_prototype_check_once_per_call(self, monkeypatch, pass_fn):
        """Eighty 16-row slides, two stacks, form the fold and check the
        prototypes once in each pass, not once per slide or per stack."""
        import fgpan.training as training

        slides, pset, params = random_instance(4, patches=16, n_slides=80, grid_rows=8,
                                               grid_cols=8)
        calls = {"_fold": 0, "_checked_proto_matrix": 0}
        for name in calls:
            original = getattr(training, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(training, name, counted)
        assert len(_stacks(slides)) == 2
        pass_fn(slides, params, pset)
        assert calls == {"_fold": 1, "_checked_proto_matrix": 1}


def wsi_shape_instance():
    """Two 2048-row, d=256 slides of a 64 x 64 grid, their normalized
    prototypes, and a fresh S=4, two-head, learned-table model."""
    slides, pset = gen_synthetic(SyntheticConfig(
        classes=2, slides_per_class=1, patches_per_slide=2048, dim=256,
        grid_rows=64, grid_cols=64, seed=5,
    ))
    pset = make_pset([e / np.linalg.norm(e) for e in pset.matrix()])
    params = init_params(256, 4, 2, grid_rows=64, grid_cols=64, seed=0,
                         pos_mode="learned_table")
    return slides, pset, params


class TestWsiScaleOracle:
    def test_directional_derivatives_at_wsi_shape(self):
        """The 1e-5 contract at the wsi-train shape: two 2048-row, d=256
        slides of a 64 x 64 grid, S=4, two heads, learned table, and
        theta = init + 0.02 N(0, 1) so the gates and aggregation carry
        gradient. Its 1.5M scalars are far past finite_diff_check's limit,
        so the check is directional: one random unit direction within each
        leaf and one over the whole of theta."""
        slides, pset, params = wsi_shape_instance()
        rng = np.random.default_rng(0)
        params = params.with_flat(params.flatten() + 0.02 * rng.standard_normal(params.n_scalars))
        report = finite_diff_check(slides, params, pset, 1.0)
        assert list(report) == [name for name, _ in params.leaves()] + ["theta"]
        assert max(report.values()) <= 1e-5, report


def _traced_peak(fn) -> int:
    """Bytes fn allocates at its peak, over what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    @pytest.mark.parametrize("pass_fn", [total_loss, grad_total_loss,
                                         lambda sl, p, ps, _: forward_slides(sl, p, ps)],
                             ids=["total_loss", "grad_total_loss", "forward_slides"])
    def test_two_stacks_peak_as_one(self, pass_fn):
        """A batch that runs as two stacks holds one stack's intermediates
        at a time: its peak is within 1.25x the larger one-slide peak, not
        the 2x of a cache kept through the next stack's forward."""
        rng = np.random.default_rng(3)
        d, grid = 64, 32
        slides = []
        for j in range(2):
            cells = np.sort(rng.choice(grid * grid, size=600, replace=False))
            slides.append(SlideRecord(f"s{j}", j, np.stack(np.divmod(cells, grid), axis=1),
                                      rng.standard_normal((600, d)), grid, grid))
        raw = rng.standard_normal((2, d))
        pset = make_pset(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        params = init_params(d, 2, 2, seed=0, pos_mode="learned_table",
                             grid_rows=grid, grid_cols=grid)
        assert len(_stacks(slides)) == 2
        single = max(_traced_peak(lambda: pass_fn([s], params, pset, 1.0)) for s in slides)
        both = _traced_peak(lambda: pass_fn(slides, params, pset, 1.0))
        assert both <= 1.25 * single, (both, single)

    @pytest.mark.parametrize("pass_fn", [lambda s, p, ps: forward_slide(s, p, ps),
                                         lambda s, p, ps: total_loss([s], p, ps, 1.0)],
                             ids=["forward_slide", "total_loss"])
    def test_forward_only_keeps_no_padded_buffers(self, pass_fn):
        """A pass with no backward frees each head's padded q, k, v and
        attention weights once its output is formed: with four heads it
        peaks at under 0.6x the gradient pass, not the 0.9x of keeping them."""
        rng = np.random.default_rng(5)
        d, grid = 64, 32
        cells = np.sort(rng.choice(grid * grid, size=1024, replace=False))
        slide = SlideRecord("s", 1, np.stack(np.divmod(cells, grid), axis=1),
                            rng.standard_normal((1024, d)), grid, grid)
        raw = rng.standard_normal((2, d))
        pset = make_pset(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        params = init_params(d, 4, 4, seed=0, pos_mode="learned_table",
                             grid_rows=grid, grid_cols=grid)
        grad = _traced_peak(lambda: grad_total_loss([slide], params, pset, 1.0))
        fwd = _traced_peak(lambda: pass_fn(slide, params, pset))
        assert fwd <= 0.6 * grad, (fwd, grad)

    def test_wsi_shape_gradient_pass(self):
        """A gradient pass over two 2048-row, d=256 slides of a 64 x 64 grid
        (S=4, two heads, learned table) peaks at 56 MB or less: each
        occupancy class pads its windows to its own capacity, not S^2, and
        the pass keeps one copy of each buffer (65 MB with every window
        padded to S^2 and z cached beside y)."""
        slides, pset, params = wsi_shape_instance()
        peak = _traced_peak(lambda: grad_total_loss(slides, params, pset, 1.0))
        assert peak <= 56e6, f"{peak / 1e6:.1f} MB"

    def test_post_fps_gradient_pass(self):
        """A gradient pass over one slide of 512 patches scattered over a
        128 x 128 grid (farthest-point sampling's output from 8,192 cells;
        d=512, S=4, two heads, sinusoidal) peaks at 60 MB or less: most of
        its windows hold one or two patches, and a padded S^2 grid held
        eight times its rows (97 MB)."""
        rng = np.random.default_rng(5)
        cells = rng.choice(rng.choice(128 * 128, size=8192, replace=False), size=512,
                           replace=False)
        slide = SlideRecord("fps", 1, np.stack(np.divmod(np.sort(cells), 128), axis=1),
                            rng.standard_normal((512, 512)), 128, 128)
        raw = rng.standard_normal((4, 512))
        pset = make_pset(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        params = init_params(512, 4, 2, seed=0)
        peak = _traced_peak(lambda: grad_total_loss([slide], params, pset, 1.0))
        assert peak <= 60e6, f"{peak / 1e6:.1f} MB"


# what a ValueError at the numeric edges names
_NAMED_EDGE = re.compile(
    r"temp\.log_tau = |zero-norm fused feature|non-finite fused-feature norm|non-finite loss"
    r"|non-finite gradient in parameter leaf '|alpha must be a finite|P must be finite"
)


def _scaled(slides, scale):
    return [SlideRecord(s.slide_id, s.label, s.coords(), s.matrix() * scale, s.grid_rows,
                        s.grid_cols) for s in slides]


class TestNumericEdges:
    """At any reachable temperature and feature scale, every public pass
    returns finite values or raises a ValueError that names what is out of
    range."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1000, 1000), st.floats(-300, 300), st.booleans(), st.integers(0, 3))
    @example(800.0, 0.0, True, 0)
    @example(-800.0, 0.0, True, 0)
    @example(-720.0, 0.0, False, 1)
    @example(0.0, 160.0, False, 0)
    @example(0.0, -300.0, False, 0)
    def test_every_pass_is_finite_or_named(self, log_tau, exponent, lwa_gff, seed):
        slides, pset, params = random_instance(seed, randomize_params=True)
        slides = _scaled(slides, 10.0 ** exponent)
        params.temp.log_tau = log_tau
        passes = [
            lambda: [x for p, pred in forward_slides(slides, params, pset, lwa_gff=lwa_gff)
                     for x in (p, pred.alpha, pred.P)],
            lambda: [total_loss(slides, params, pset, 1.0, lwa_gff=lwa_gff)],
            lambda: [x.theta if hasattr(x, "theta") else x
                     for x in grad_total_loss(slides, params, pset, 1.0, lwa_gff=lwa_gff)],
        ]
        for run in passes:
            try:
                out = run()
            except ValueError as exc:
                assert _NAMED_EDGE.search(str(exc)), str(exc)
            else:
                assert all(np.isfinite(x).all() for x in out)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_feature_norm_is_refused(self):
        """Features at 1e160 overflow |h| without refinement; h / |h| would
        be 0 and P exactly uniform."""
        slides, pset, params = random_instance(0)
        slides = _scaled(slides, 1e160)
        for run in (lambda: forward_slides(slides, params, pset, lwa_gff=False),
                    lambda: total_loss(slides, params, pset, 1.0, lwa_gff=False),
                    lambda: grad_total_loss(slides, params, pset, 1.0, lwa_gff=False)):
            with pytest.raises(ValueError, match="non-finite fused-feature norm"):
                run()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_and_gradient_are_refused(self):
        """The largest finite lambda overflows the slide term: at tau = e^5
        P is near uniform over 3 classes, so the slide cross entropy is about
        log 3 > 1. The loss is refused by name, not returned as inf."""
        slides, pset, params = random_instance(1)
        params.temp.log_tau = 5.0
        with pytest.raises(ValueError, match="non-finite loss"):
            total_loss(slides, params, pset, sys.float_info.max)
        with pytest.raises(ValueError, match="non-finite loss"):
            grad_total_loss(slides, params, pset, sys.float_info.max)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("log_tau", [-710.0, -720.0, -745.0])
    def test_subnormal_tau_is_refused_by_name(self, log_tau):
        """A positive tau below the smallest normal double would overflow
        s / tau; every pass names temp.log_tau before any warning."""
        slides, pset, params = random_instance(1)
        params.temp.log_tau = log_tau
        for run in (lambda: forward_slides(slides, params, pset),
                    lambda: total_loss(slides, params, pset, 1.0),
                    lambda: grad_total_loss(slides, params, pset, 1.0)):
            with pytest.raises(ValueError, match=re.escape(f"temp.log_tau = {log_tau!r}: ")):
                run()


class TestGateSigmoid:
    @pytest.mark.filterwarnings("error")
    def test_equals_scipy_expit(self):
        """Within 1e-15 relative of scipy's expit over [-1000, 1000], exactly
        0.0 and 1.0 at the ends, with no overflow warning."""
        expit = pytest.importorskip("scipy.special").expit
        x = np.concatenate([np.linspace(-1000.0, 1000.0, 400_001),
                            [-745.2, -709.79, -708.4, -37.0, -0.0, 37.0, 709.79]])
        got = _sigmoid(x)
        np.testing.assert_allclose(got, expit(x), rtol=1e-15, atol=0.0)
        assert got[0] == 0.0 and got[400_000] == 1.0


class TestAdamW:
    def test_zero_learning_rate_is_identity(self):
        slides, pset, params = random_instance(6)
        _, grads = grad_total_loss(slides, params, pset, 1.0)
        cfg = TrainConfig(learning_rate=0.0, weight_decay=0.1)
        new, _ = adamw_step(params, grads, None, cfg)
        np.testing.assert_array_equal(new.flatten(), params.flatten())

    def test_first_step_hand_value(self):
        """theta=0, g=1, wd=0, lr=0.01: bias correction makes m_hat=v_hat=1,
        so theta' = -0.01 / (1 + eps)."""
        params = init_params(2, 1, 1, seed=0)
        grads = grad_zeros(params)
        grads.theta[:] = 1.0
        base = params.with_flat(np.zeros(params.n_scalars))
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.0)
        new, state = adamw_step(base, grads, None, cfg)
        want = -0.01 / (1.0 + 1e-8)
        np.testing.assert_allclose(new.flatten(), want, rtol=1e-9)
        assert state["step"] == 1

    def test_pure_decay(self):
        """Zero gradient: decayed leaves shrink by (1 - lr*wd), exempt leaves
        (log_tau, b_g, b_f) stay exactly put."""
        params = init_params(4, 2, 1, seed=3)
        vec = params.flatten()
        vec[:] = np.linspace(0.5, 1.5, vec.size)
        params = params.with_flat(vec)
        grads = grad_zeros(params)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        new, _ = adamw_step(params, grads, None, cfg)
        mask = params.decay_mask()
        np.testing.assert_allclose(new.flatten()[mask], vec[mask] * (1 - 0.1 * 0.5), rtol=1e-12)
        np.testing.assert_array_equal(new.flatten()[~mask], vec[~mask])


    def test_previous_params_unchanged(self):
        """adamw_step returns new params over a new vector and leaves the
        caller's params and gradient as they were. The moments are updated
        in place: the state returned is the dict passed in, with its own m
        and v arrays overwritten and its step advanced."""
        slides, pset, params = random_instance(7, randomize_params=True)
        _, grads = grad_total_loss(slides, params, pset, 1.0)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        _, state = adamw_step(params, grads, None, cfg)
        m, v = state["m"], state["v"]
        before = [params.flatten(), grads.flatten(), m.copy(), v.copy()]
        new, after = adamw_step(params, grads, state, cfg)
        assert not np.shares_memory(new.theta, params.theta)
        assert np.any(new.flatten() != before[0])
        for now, then in zip([params.flatten(), grads.flatten()], before):
            np.testing.assert_array_equal(now, then)
        assert after is state and after["m"] is m and after["v"] is v
        assert after["step"] == 2
        assert np.any(m != before[2]) and np.any(v != before[3])

    def test_peak_memory_two_vectors(self):
        """Over its live inputs (params, gradient, moments and the cached
        decay mask), a step's traced peak is at most two parameter-sized
        vectors, the new theta and one scratch vector, and 128 KiB for
        numpy's 64 KiB buffer casting the bool mask and the new views."""
        params = init_params(32, 2, 2, grid_rows=64, grid_cols=64, seed=0,
                             pos_mode="learned_table")
        rng = np.random.default_rng(0)
        grads = params.with_flat(rng.standard_normal(params.n_scalars))
        cfg = TrainConfig()
        _, state = adamw_step(params, grads, None, cfg)
        params.decay_mask()
        peak = _traced_peak(lambda: adamw_step(params, grads, state, cfg))
        assert peak <= 2 * params.theta.nbytes + 128 * 1024, (
            f"peak {peak} B over {params.theta.nbytes} B vectors")


def _adamw_as_one_expression(params, grads, state, cfg):
    """The AdamW update written as one expression per quantity, the form
    adamw_step had before it wrote into preallocated vectors; the reference
    its bytes are held to."""
    g, theta = grads.theta, params.theta
    if state is None:
        state = {"step": 0, "m": np.zeros_like(theta), "v": np.zeros_like(theta)}
    b1, b2 = cfg.betas
    t = state["step"] + 1
    m = b1 * state["m"] + (1.0 - b1) * g
    v = b2 * state["v"] + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    decay = cfg.learning_rate * cfg.weight_decay * theta * params.decay_mask()
    return theta - update - decay, m, v


class TestAdamWBytes:
    @pytest.mark.parametrize("t", [1, 2, 1000])
    @pytest.mark.parametrize("lr, wd", [(1e-3, 1e-4), (0.0, 0.1), (0.05, 0.0)],
                             ids=["desk", "lr=0", "wd=0"])
    def test_equals_former_expression_bitwise(self, t, lr, wd):
        """theta, m and v equal the one-expression update byte for byte, over
        decayed and exempt leaves alike, with signed zeros, zero gradients,
        gradients whose square overflows and moments carried from a step."""
        slides, pset, params = random_instance(
            12, pos_mode="learned_table", randomize_params=True
        )
        _, grads = grad_total_loss(slides, params, pset, 1.0)
        n = params.n_scalars
        rng = np.random.default_rng(t)
        theta, g = params.flatten(), grads.flatten()
        edge = rng.choice(n, size=n // 4, replace=False)
        theta[edge[:8]] = -0.0
        g[edge[:8]] = 0.0
        g[edge[8:16]] = [1e200, -1e200, 1e-300, -1e-300, 5e-324, -5e-324, 0.0, -0.0]
        params, grads = params.with_flat(theta), grads.with_flat(g)
        state = None
        if t > 1:
            state = {"step": t - 1, "m": 0.1 * rng.standard_normal(n),
                     "v": 0.01 * rng.random(n)}
            state["v"][edge[16:24]] = 0.0
        cfg = TrainConfig(learning_rate=lr, weight_decay=wd)
        # adamw_step updates the moments in place: the reference reads a copy
        before = None if state is None else {k: np.copy(x) for k, x in state.items()}
        with np.errstate(over="ignore"):  # (1 - b2) * g * g of g = 1e200
            new, new_state = adamw_step(params, grads, state, cfg)
            want_theta, want_m, want_v = _adamw_as_one_expression(params, grads, before, cfg)
        assert new_state["step"] == t
        assert new.theta.tobytes() == want_theta.tobytes()
        assert new_state["m"].tobytes() == want_m.tobytes()
        assert new_state["v"].tobytes() == want_v.tobytes()


class TestTrain:
    def test_seed_determinism(self):
        slides, pset = tiny_corpus(classes=3, sigma=0.1, rho=0.6, m=8,
                                   slides_per_class=3)
        cfg = desk_profile(iterations=20, seed=11)
        p1, t1 = train(slides, cfg, pset)
        p2, t2 = train(slides, cfg, pset)
        assert t1 == t2
        np.testing.assert_array_equal(p1.flatten(), p2.flatten())

    def test_loss_decreases_on_synthetic(self):
        slides, pset = tiny_corpus(classes=4, sigma=0.05, rho=0.6, m=16, d=16,
                                   slides_per_class=3, seed=2)
        cfg = desk_profile(iterations=200, seed=0)
        _, losses = train(slides, cfg, pset)
        assert losses[-1] < losses[0]

    def test_zero_learning_rate_flat_trajectory(self):
        slides, pset = tiny_corpus(classes=2, sigma=0.1, rho=0.8, m=6,
                                   slides_per_class=2)
        cfg = TrainConfig(learning_rate=0.0, iterations=10, batch_size=8, seed=0)
        _, losses = train(slides, cfg, pset)
        assert max(losses) == min(losses)

    def test_step_loss_is_total_loss_before_the_update(self, monkeypatch):
        """Each step records total_loss at the pre-update params, and the
        gradient pass runs on the same batch: two forwards per stack, and
        the four 6-row slides of a batch make one stack."""
        import fgpan.training as tr

        calls = []
        core = tr._forward_core
        monkeypatch.setattr(tr, "_forward_core", lambda *a: calls.append(1) or core(*a))
        recorded = []
        loss_fn = tr.total_loss
        monkeypatch.setattr(
            tr, "total_loss", lambda *a, **k: recorded.append(loss_fn(*a, **k)) or recorded[-1]
        )
        slides, pset = tiny_corpus(classes=2, sigma=0.1, rho=0.8, m=6, slides_per_class=3)
        _, losses = train(slides, desk_profile(iterations=5, batch_size=4, seed=0), pset)
        assert losses == recorded and len(losses) == 5
        assert len(calls) == 2 * 5

    def test_empty_dataset_rejected(self):
        _, pset = tiny_corpus()
        with pytest.raises(ValueError, match="empty"):
            train([], desk_profile(), pset)

    def test_label_outside_prototypes_rejected(self):
        slides, pset = tiny_corpus(classes=3)
        two = PrototypeSet(pset.names[:2], pset.descriptions[:2], pset.matrix()[:2])
        cfg = desk_profile(iterations=1)
        with pytest.raises(ValueError, match="outside prototype set"):
            train(slides, cfg, two)

    @pytest.mark.parametrize("name, value", [
        ("lambda_slide", -1.0), ("lambda_slide", math.nan), ("lambda_slide", math.inf),
        ("learning_rate", -1e-3), ("learning_rate", math.nan), ("learning_rate", -math.inf),
        ("weight_decay", -5.0), ("weight_decay", math.nan), ("weight_decay", math.inf),
    ])
    def test_bad_setting_refused_by_name(self, name, value):
        """Before any step: a negative lambda_slide trains against the label,
        a negative weight_decay grows every decayed leaf, and a NaN would
        surface only as a non-finite parameter leaf."""
        want = f"{name} must be finite and non-negative, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1e-8, math.nan, math.inf])
    def test_bad_epsilon_refused_by_name(self, value):
        """AdamW divides by sqrt(v_hat) + epsilon, and v_hat is 0 wherever
        a leaf has had no gradient yet: epsilon must be positive."""
        want = f"epsilon must be finite and positive, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            TrainConfig(epsilon=value)

    def test_zero_settings_accepted(self):
        cfg = TrainConfig(learning_rate=0.0, lambda_slide=0.0, weight_decay=0.0)
        assert (cfg.learning_rate, cfg.lambda_slide, cfg.weight_decay) == (0.0, 0.0, 0.0)

    def test_profiles(self):
        desk = desk_profile()
        assert (desk.learning_rate, desk.iterations) == (1e-3, 300)
        paper = paper_profile()
        assert (paper.learning_rate, paper.weight_decay) == (1e-5, 1e-4)
        assert (paper.batch_size, paper.iterations) == (4, 20000)
