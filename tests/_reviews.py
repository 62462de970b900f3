"""The review corpus's per-review generator loop, kept as the oracle that
``sim._review_columns`` and ``sim.generate_review_dataset`` must equal bit
for bit.  Test oracle only: the library builds the corpus as columns, and
the only file it saves the corpus to is dataset format 2."""

import numpy as np

from cactor.seeding import derive_seed
from cactor.sim import REVIEW_ASPECTS, REVIEW_M


def reference_generate_reviews(config) -> list[tuple[int, int, np.ndarray, float]]:
    """Raw (user, item, aspect-ordered scores, behavior_prob) records.

    Aspect scores are integers in 1..5; "business" and "checkin" are missing
    with some probability and encoded as -1, which is why their corpus means
    come out negative.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "reviews")))
    d = 4
    users = rng.normal(size=(config.n_users, d))
    harshness = rng.normal(scale=0.3, size=config.n_users)
    items = rng.normal(size=(config.n_items, d))
    quality = rng.normal(scale=0.7, size=config.n_items)
    aspect_dev = rng.normal(scale=0.4, size=(config.n_items, REVIEW_M - 1))

    affinity = users @ items.T / np.sqrt(d)
    logits = 1.5 * (affinity + quality)
    shifted = logits - logits.max(axis=1, keepdims=True)
    choice_probs = np.exp(shifted)
    choice_probs /= choice_probs.sum(axis=1, keepdims=True)

    records = []
    for _ in range(config.n_reviews):
        u = int(rng.integers(config.n_users))
        h = int(rng.choice(config.n_items, p=choice_probs[u]))
        base = 3.4 + quality[h] + 0.35 * affinity[u, h] - harshness[u]
        scores = np.empty(REVIEW_M)
        for i in range(REVIEW_M - 1):
            scores[i] = np.clip(round(base + aspect_dev[h, i] + rng.normal(scale=0.4)), 1, 5)
        scores[REVIEW_M - 1] = np.clip(
            round(base + 0.5 * aspect_dev[h].mean() + rng.normal(scale=0.3)), 1, 5)
        for i, name in enumerate(REVIEW_ASPECTS[:-1]):
            if name in ("business", "checkin") and rng.random() < 0.55:
                scores[i] = -1.0
        records.append((u, h, scores, float(choice_probs[u, h])))
    return records
