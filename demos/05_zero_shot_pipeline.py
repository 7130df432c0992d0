#!/usr/bin/env python3
# End-to-end zero-shot run: train on seen classes, classify unseen ones.

import numpy as np

from fgpan import (
    SyntheticConfig,
    desk_profile,
    forward_slide,
    forward_slides,
    gen_synthetic,
    init_params,
    train,
)
from fgpan.metrics import EvalRecord, auroc_ovr, balanced_accuracy, f1_scores

# seen and unseen corpora use disjoint class prototypes (different seeds)
seen, seen_protos = gen_synthetic(
    SyntheticConfig(classes=4, slides_per_class=6, patches_per_slide=64, dim=16,
                    signal_fraction=0.6, noise_sigma=0.05, seed=101)
)
unseen, unseen_protos = gen_synthetic(
    SyntheticConfig(classes=3, slides_per_class=8, patches_per_slide=64, dim=16,
                    signal_fraction=0.6, noise_sigma=0.05, seed=202)
)
print(f"seen: {len(seen)} slides / {seen_protos.n_classes} classes;"
      f" unseen: {len(unseen)} slides / {unseen_protos.n_classes} classes")


def evaluate(slides, params, protos, lwa_gff):
    # one call over all slides: small slides share a stacked forward pass
    recs = [EvalRecord(s.slide_id, s.label, pred.predicted, pred.P)
            for s, (_, pred) in zip(slides, forward_slides(slides, params, protos,
                                                          lwa_gff=lwa_gff))]
    bacc = balanced_accuracy(recs)
    macro, weighted = f1_scores(recs)
    auroc = auroc_ovr(recs)
    return bacc, macro, weighted, auroc


# identity-feature pipeline, untrained: raw prototype-cosine matching
fresh = init_params(16, 2, 2, seed=0)
bacc, macro, weighted, auroc = evaluate(unseen, fresh, unseen_protos, lwa_gff=False)
print(f"untrained identity pipeline on unseen classes: "
      f"bacc={bacc:.4f} f1={macro:.4f}/{weighted:.4f} auroc={auroc:.4f}")

# train the class-agnostic parts (temperature, aggregation) on seen classes
cfg = desk_profile(seed=0)
params, losses = train(seen, cfg, seen_protos, lwa_gff=False)
print(f"trained {cfg.iterations} steps: loss {losses[0]:.4f} -> {losses[-1]:.4f}")

bacc, macro, weighted, auroc = evaluate(unseen, params, unseen_protos, lwa_gff=False)
print(f"trained pipeline on unseen classes:            "
      f"bacc={bacc:.4f} f1={macro:.4f}/{weighted:.4f} auroc={auroc:.4f}")

# the learned aggregation shifts weight toward the signal block
_, pred = forward_slide(unseen[0], params, unseen_protos, lwa_gff=False)
n_sig = int(np.ceil(0.6 * 64))
print(f"mean attention weight: signal patches {pred.alpha[:n_sig].mean():.5f}, "
      f"background patches {pred.alpha[n_sig:].mean():.5f} (uniform would be {1/64:.5f})")
