"""Acceptance suite: one test per criterion (criterion 5 runs with and
without the refinement stage), each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The headline clinical benchmarks are not reproducible at desk scale,
so acceptance is property-based plus synthetic end-to-end checks.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    dense_attention_reference,
    forward_cache,
    head_attention,
    random_head,
    window_weights,
)

import fgpan as fg
from fgpan.cli import dispatch, parse_config
from fgpan.metrics import EvalRecord, auroc_ovr, balanced_accuracy, f1_scores


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {label}")
        raise
    print(f"[acceptance] criterion {num}: PASS - {label}")


def evaluate_bacc(slides, params, pset, lwa_gff=False):
    """Balanced accuracy on labeled slides of the identity-feature pipeline
    (the refinement stage bypassed), or of the full one with lwa_gff=True."""
    recs = []
    for s in slides:
        _, pred = fg.forward_slide(s, params, pset, lwa_gff=lwa_gff)
        recs.append(EvalRecord(s.slide_id, s.label, pred.predicted, pred.P))
    return balanced_accuracy(recs)


def test_criterion_1_gradient_oracle():
    """Analytic gradients match central finite differences on >= 10 seeded
    instances (d=8, S=2, L=2, C=3, M=6), both positional modes, lambda 0/1."""
    with criterion(1, "gradient oracle <= 1e-5 on 12 seeded instances, < 60 s"):
        start = time.time()
        worst = 0.0
        count = 0
        for seed in range(3):
            for pos_mode in ("sinusoidal", "learned_table"):
                for lam in (0.0, 1.0):
                    slides, pset, params = fg.random_instance(
                        seed, dim=8, window_size=2, heads=2, classes=3,
                        patches=6, pos_mode=pos_mode,
                    )
                    err = max(fg.finite_diff_check(slides, params, pset, lam).values())
                    assert err <= 1e-5, (
                        f"seed={seed} pos={pos_mode} lam={lam}: {err:.3e} > 1e-5"
                    )
                    worst = max(worst, err)
                    count += 1
        elapsed = time.time() - start
        assert count >= 10
        assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f} s"
        print(f"  ({count} instances, worst {worst:.3e}, {elapsed:.1f} s)", end=" ")


def test_criterion_2_attention_oracle():
    """window_attention, the kernel the forward pass runs once per head (on
    f W_Q W_K^T and f, its output then taken by W_V), equals a brute-force
    dense reference on >= 100 random windows (k <= S^2, S in {2, 3},
    d <= 8) of random slides, to 1e-12 relative error."""
    with criterion(2, "attention matches dense reference <= 1e-12 on 100 windows"):
        rng = np.random.default_rng(12345)
        worst = 0.0
        windows = 0
        while windows < 100:
            d = int(rng.integers(2, 9))
            s = int(rng.integers(2, 4))
            head = random_head(rng, d, s)
            side = 2 * s
            cells = rng.choice(side * side, size=int(rng.integers(1, 9)), replace=False)
            coords = np.array([(int(c) // side, int(c) % side) for c in cells])
            f = rng.standard_normal((len(coords), d))
            layout = fg.partition_coords(coords, s)
            got, _ = head_attention(f, layout, head)
            for w in range(layout.n_windows):
                idx = np.flatnonzero(layout.window == w)
                want = dense_attention_reference(f[idx], coords[idx] % s, head)
                err = np.abs(got[idx] - want) / np.maximum(np.abs(want), 1e-9)
                rel = float(np.max(err))
                worst = max(worst, rel)
                assert rel <= 1e-12, f"relative error {rel:.3e}"
                windows += 1
        print(f"  ({windows} windows, worst {worst:.3e})", end=" ")


def test_criterion_3_normalization_convexity():
    """Attention rows of real queries over real keys, alpha, p, and P of the
    running forward pass all sum to 1 +/- 1e-12, empty key slots get exactly
    zero weight; P stays inside the per-class min/max envelope of the patch
    distributions."""
    with criterion(3, "normalization and convexity over 1000 random instances"):
        rng = np.random.default_rng(777)
        d = 8
        base = fg.init_params(d, 2, 2, seed=0)
        flat = base.flatten()
        for _ in range(1000):
            c = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            params = base.with_flat(flat + rng.standard_normal(flat.size))
            params.temp.log_tau = math.log(rng.uniform(0.01, 10))
            cells = rng.choice(16, size=m, replace=False)
            coords = [(int(x) // 4, int(x) % 4) for x in cells]
            protos = rng.standard_normal((c, d))
            protos /= np.linalg.norm(protos, axis=1, keepdims=True)
            cache = forward_cache(rng.standard_normal((m, d)), coords, params, protos)

            for a in cache["attn"]:
                for a_w, m in window_weights(cache["classes"], a):
                    assert np.all(np.abs(a_w[np.ix_(m, m)].sum(axis=1) - 1.0) <= 1e-12)
                    assert np.all(a_w[:, ~m] == 0.0)
            assert np.all(np.abs(cache["p"].sum(axis=1) - 1.0) <= 1e-12)
            assert abs(cache["alpha"].sum() - 1.0) <= 1e-12
            p_slide, probs = cache["p_slide"], cache["p"]
            assert abs(p_slide.sum() - 1.0) <= 1e-12
            assert np.all(p_slide >= probs.min(axis=0) - 1e-12)
            assert np.all(p_slide <= probs.max(axis=0) + 1e-12)


def test_criterion_4_ranking_invariance():
    """argmax(p) == argmax(s) for every patch of 1000 random (slide, tau)
    draws through the forward pass, tau in [0.01, 10]: temperature never
    changes the decision."""
    with criterion(4, "temperature never alters the argmax, 1000 draws"):
        rng = np.random.default_rng(31337)
        params = fg.init_params(8, 2, 1, seed=0)
        for _ in range(1000):
            c = int(rng.integers(2, 9))
            params.temp.log_tau = math.log(float(rng.uniform(0.01, 10.0)))
            protos = rng.standard_normal((c, 8))
            protos /= np.linalg.norm(protos, axis=1, keepdims=True)
            cache = forward_cache(rng.standard_normal((4, 8)), [(0, i) for i in range(4)],
                                  params, protos, lwa_gff=False)
            np.testing.assert_array_equal(cache["p"].argmax(axis=1), cache["s"].argmax(axis=1))


def zero_shot_corpora():
    """Criterion 5's (slides, prototypes) pairs: 4 seen classes to train on
    and 3 disjoint unseen classes to classify."""
    seen_cfg = fg.SyntheticConfig(
        classes=4, slides_per_class=6, patches_per_slide=64, dim=16,
        signal_fraction=0.6, noise_sigma=0.05, grid_rows=8, grid_cols=8,
        seed=101,
    )
    unseen_cfg = fg.SyntheticConfig(
        classes=3, slides_per_class=8, patches_per_slide=64, dim=16,
        signal_fraction=0.6, noise_sigma=0.05, grid_rows=8, grid_cols=8,
        seed=202,
    )
    return fg.gen_synthetic(seen_cfg), fg.gen_synthetic(unseen_cfg)


def test_criterion_5_zero_shot_end_to_end():
    """Train 300 desk-profile iterations on 4 seen classes, then classify 3
    disjoint unseen classes against fresh prototypes at bacc >= 0.95.

    Runs the identity-feature (lwa_gff=off) configuration whose closed-form
    behavior fixes the 0.95 threshold: signal patches sit within sigma=0.05
    of their prototype, so prototype cosine is near-perfect. The closed-form
    pipeline is verified first, then the trained one."""
    with criterion(5, "zero-shot synthetic end-to-end bacc >= 0.95, < 2 min"):
        start = time.time()
        (seen, seen_protos), (unseen, unseen_protos) = zero_shot_corpora()

        # closed-form verification of the threshold (untrained identity pass)
        fresh = fg.init_params(16, 2, 2, seed=0)
        closed_form = evaluate_bacc(unseen, fresh, unseen_protos)
        assert closed_form >= 0.95, f"closed-form bacc {closed_form:.3f}"

        cfg = fg.desk_profile(seed=0)
        assert cfg.iterations == 300
        trained, losses = fg.train(seen, cfg, seen_protos, lwa_gff=False)
        assert losses[-1] < losses[0]
        bacc = evaluate_bacc(unseen, trained, unseen_protos)
        elapsed = time.time() - start
        assert bacc >= 0.95, f"zero-shot bacc {bacc:.3f}"
        assert elapsed < 120.0, f"end-to-end took {elapsed:.1f} s"
        print(f"  (closed-form {closed_form:.3f}, trained {bacc:.3f}, {elapsed:.1f} s)", end=" ")


def test_criterion_5_zero_shot_end_to_end_with_refinement():
    """Criterion 5 with the refinement stage on: window attention and gated
    fusion are trained and run at inference, on the same corpora."""
    with criterion(5, "zero-shot end-to-end with LWA/GFF bacc >= 0.95, < 2 min"):
        start = time.time()
        (seen, seen_protos), (unseen, unseen_protos) = zero_shot_corpora()
        trained, losses = fg.train(seen, fg.desk_profile(seed=0), seen_protos, lwa_gff=True)
        assert len(losses) == 300 and losses[-1] < losses[0]
        bacc = evaluate_bacc(unseen, trained, unseen_protos, lwa_gff=True)
        elapsed = time.time() - start
        assert bacc >= 0.95, f"zero-shot bacc {bacc:.3f}"
        assert elapsed < 120.0, f"end-to-end took {elapsed:.1f} s"
        print(f"  (trained {bacc:.3f}, {elapsed:.1f} s)", end=" ")


def test_criterion_6_ablation_direction():
    """Separated fine-grained prototypes beat overlapping name-only ones in
    balanced accuracy on every one of 5 seeds (direction only)."""
    with criterion(6, "fine-grained > name-only prototypes on 5/5 seeds"):
        gaps = []
        for seed in range(5):
            cfg = fg.SyntheticConfig(
                classes=4, slides_per_class=5, patches_per_slide=32, dim=16,
                signal_fraction=0.6, noise_sigma=0.3, grid_rows=8, grid_cols=8,
                seed=seed,
            )
            slides, fine = fg.gen_synthetic(cfg)
            coarse = fg.coarse_prototypes(fine, seed=seed)
            params = fg.init_params(16, 2, 2, seed=seed)
            bacc_fine = evaluate_bacc(slides, params, fine)
            bacc_coarse = evaluate_bacc(slides, params, coarse)
            assert bacc_fine > bacc_coarse, (
                f"seed {seed}: fine {bacc_fine:.3f} <= coarse {bacc_coarse:.3f}"
            )
            gaps.append((bacc_fine, bacc_coarse))
        summary = ", ".join(f"{f:.2f}>{c:.2f}" for f, c in gaps)
        print(f"  ({summary})", end=" ")


def test_criterion_7_prototype_distance():
    """interclass_distance: sqrt(2) +/- 1e-9 for orthogonal unit prototypes,
    exactly 0 for coincident ones."""
    with criterion(7, "prototype distance metric fixed points"):
        def pset_from(rows):
            return fg.PrototypeSet(
                len(rows[0]),
                [fg.ClassPrototype(i, f"c{i}", f"c{i}", r) for i, r in enumerate(rows)],
            )

        for c, d in ((2, 2), (3, 8), (5, 16)):
            ortho = pset_from(list(np.eye(d)[:c]))
            assert abs(fg.interclass_distance(ortho) - math.sqrt(2)) <= 1e-9
        coincident = pset_from([np.eye(4)[0], np.eye(4)[0], np.eye(4)[0]])
        assert fg.interclass_distance(coincident) == 0.0


def test_criterion_8_metrics_fixtures():
    """Balanced accuracy, F1, and AUROC agree with hand-computed confusion
    fixtures exactly (1e-12)."""
    with criterion(8, "metrics match hand-computed fixtures to 1e-12"):
        def recs(true, pred, c):
            out = []
            for i, (t, p) in enumerate(zip(true, pred)):
                probs = np.full(c, 0.1 / (c - 1))
                probs[p] = 0.9
                out.append(EvalRecord(f"s{i}", t, p, probs))
            return out

        # balanced accuracy: true AABBB / pred ABBBB -> (0.5 + 1.0)/2
        assert abs(balanced_accuracy(recs([0, 0, 1, 1, 1], [0, 1, 1, 1, 1], 2)) - 0.75) <= 1e-12
        assert balanced_accuracy(recs([0, 1], [0, 1], 2)) == 1.0

        # F1: true AAB / pred ABB -> both classes 2/3
        macro, weighted = f1_scores(recs([0, 0, 1], [0, 1, 1], 2))
        assert abs(macro - 2.0 / 3.0) <= 1e-12
        assert abs(weighted - 2.0 / 3.0) <= 1e-12
        assert f1_scores(recs([0, 1], [0, 1], 2)) == (1.0, 1.0)

        # AUROC: perfect separation, half-concordant, and all-ties cases
        assert fg.binary_auroc([0.9, 0.8, 0.4, 0.3], [1, 1, 0, 0]) == 1.0
        assert fg.binary_auroc([0.9, 0.3, 0.8, 0.4], [1, 1, 0, 0]) == 0.5
        assert fg.binary_auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
        scores = [[0.8, 0.2], [0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]
        perfect = [
            EvalRecord(f"s{i}", t, t, np.asarray(scores[i]))
            for i, t in enumerate([0, 0, 1, 1])
        ]
        assert auroc_ovr(perfect) == 1.0


@pytest.mark.parametrize("select", [["--select", "all"], ["--select", "fps", "--m-max", "6"]],
                         ids=["all", "fps"])
@pytest.mark.parametrize("lwa_gff", ["on", "off"])
@pytest.mark.parametrize("pos_mode", ["sin", "table"])
def test_criterion_9_cli_determinism(tmp_path, capsys, pos_mode, lwa_gff, select):
    """gen, train, and infer rerun with identical seeds produce byte-identical
    primary outputs, for every positional mode, with the refinement stage on
    and off, and with and without patch selection."""
    with criterion(9, "gen/train/infer byte-identical across reruns"):
        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            data = root / "data"
            ckpt = root / "model.ckpt"
            preds = root / "preds.jsonl"
            root.mkdir()
            base = ["--dim", "8", "--seed", "13"]
            model = ["--pos-mode", pos_mode, "--lwa-gff", lwa_gff, *select] + base
            assert dispatch(parse_config(
                ["gen", "--classes", "2", "--slides-per-class", "2",
                 "--patches-per-slide", "9", "--grid-rows", "4", "--grid-cols", "4",
                 "--noise-sigma", "0.05", "--out", str(data)] + base)) == 0
            assert dispatch(parse_config(
                ["train", "--data", str(data),
                 "--prototypes", str(data / "prototypes.jsonl"),
                 "--checkpoint", str(ckpt), "--iterations", "10"] + model)) == 0
            assert dispatch(parse_config(
                ["infer", "--data", str(data),
                 "--prototypes", str(data / "prototypes.jsonl"),
                 "--checkpoint", str(ckpt), "--out", str(preds)] + model)) == 0
            blob = b""
            for path in sorted(data.iterdir()) + [ckpt, preds]:
                blob += path.name.encode() + b"\0" + path.read_bytes()
            outputs.append(blob)
        capsys.readouterr()  # swallow command echoes
        assert outputs[0] == outputs[1]
