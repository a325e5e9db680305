"""Synthetic data generators for benchmarks, demos and the test suites.

* :func:`random_binary_hin` draws random binary adjacencies over a fixed
  review-style schema; paired with :data:`ORACLE_METAGRAPHS` it feeds the
  plan-vs-enumeration equivalence suite.
* :func:`planted_fm_problem` builds a feature table whose labels depend on
  a chosen subset of metagraph groups, for solver and selection tests.
* :func:`write_rating_dataset` and :func:`write_review_dataset` write a
  planted HIN to disk (schema, edge files, ratings, metagraph DSL), both
  from one planted ratings draw.  The rating set splits the signal across
  social, category and co-rating structure, so fusing all metagraphs beats
  any single one; the review set matches the bundled Yelp metagraph schema
  and is the data of every benchmark workload.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp

from . import fmg, solvers
from .hin import EntitySet, HinStore, RelationDecl

ORACLE_SCHEMA = {
    "types": ("U", "B", "R", "A"),
    "relations": (
        ("rate", "U", "B"),
        ("write", "U", "R"),
        ("about", "R", "B"),
        ("mention", "R", "A"),
        ("friend", "U", "U"),
    ),
}

# Ten shapes over the oracle schema; four contain parallel (Hadamard) blocks,
# one of them nested.
ORACLE_METAGRAPHS = (
    "P1: U -[rate]- B",
    "P2: U -[friend]- U -[rate]- B",
    "P3: U -[rate]- B -[rate~]- U -[rate]- B",
    "P4: U -[write]- R -[about]- B",
    "P5: U -[write]- R -[mention]- A -[mention~]- R -[about]- B",
    "P6: U -[write]- R -( -[mention]- A -[mention~]- | -[about]- B -[about~]- )- R -[write~]- U -[rate]- B",
    "P7: U -( -[rate]- B -[rate~]- | -[friend]- U -[friend~]- )- U -[rate]- B",
    "P8: U -[write]- R -( -[about]- B -[about~]- | -[mention]- A -[mention~]- )- R -[about]- B",
    "P9: U -[write]- R -( -[about]- B -( -[rate~]- U -[rate]- | -[about~]- R -[about]- )- B -[about~]- "
    "| -[mention]- A -[mention~]- )- R -[write~]- U -[rate]- B",
    "P10: U -[rate]- B -[about~]- R -[write~]- U -[rate]- B",
)


def random_binary_hin(seed, max_entities=40, density_range=(0.04, 0.12)):
    """Random binary adjacencies over the oracle schema (counts and densities vary)."""
    rng = np.random.default_rng(seed)
    counts = {t: int(rng.integers(4, max_entities + 1)) for t in ORACLE_SCHEMA["types"]}
    store = HinStore()
    for type_name, count in counts.items():
        entity = EntitySet(type_name)
        for i in range(count):
            entity.index(f"{type_name.lower()}{i}")
        store.entities[type_name] = entity
    lo, hi = density_range
    for name, head, tail in ORACLE_SCHEMA["relations"]:
        density = rng.uniform(lo, hi)
        mask = rng.random((counts[head], counts[tail])) < density
        store.relations[name] = (RelationDecl(name, head, tail), sp.csr_matrix(mask, dtype=np.float64))
    return store


def planted_fm_problem(
    seed,
    n_samples=2000,
    n_metagraphs=4,
    rank=10,
    K=10,
    relevant=None,
    noise=0.1,
    feature_scale=1.0,
    w_scale=0.5,
    v_scale=0.2,
    lam=0.05,
    mode="convex",
    n_valid=0,
):
    """Feature table whose labels depend only on the ``relevant`` metagraphs.

    Returns (problem, true_params, relevant) where ``relevant`` indexes
    metagraphs (both their user and item groups carry signal).
    """
    rng = np.random.default_rng(seed)
    names = [f"m{l + 1}" for l in range(n_metagraphs)]
    layout = fmg.GroupLayout.from_ranks(names, [rank] * n_metagraphs)
    relevant = list(range(n_metagraphs)) if relevant is None else list(relevant)

    true = fmg.FmParams(3.5, np.zeros(layout.d), np.zeros((layout.d, K)))
    slices = layout.slices()
    for l in relevant:
        for g in (l, l + n_metagraphs):  # the metagraph's user and item groups
            sl = slices[g]
            true.w[sl] = rng.normal(0.0, w_scale, sl.stop - sl.start)
            true.V[sl] = rng.normal(0.0, v_scale, (sl.stop - sl.start, K))

    total = n_samples + n_valid
    X = rng.normal(0.0, feature_scale, (total, layout.d))
    y = fmg.predict_batch(true, fmg.FeatureTable.dense(X, np.zeros(total))) + rng.normal(0.0, noise, total)
    reg = fmg.RegConfig(mode=mode, lam_w=lam, lam_v=lam)
    valid = fmg.FeatureTable.dense(X[n_samples:], y[n_samples:]) if n_valid else None
    train = fmg.FeatureTable.dense(X[:n_samples], y[:n_samples])
    problem = solvers.TrainProblem(train, layout, reg, K, valid=valid)
    return problem, true, relevant


def scaled_fm_problem(seed, n_samples, n_metagraphs=2, rank=10, K=10, lam=0.05):
    """Fixed-width problem at a chosen sample count, for timing runs."""
    return planted_fm_problem(seed, n_samples, n_metagraphs, rank, K, lam=lam)[0]


# The metagraphs of write_rating_dataset's schema (the benchmark uses the bundled
# Yelp set instead); the DSL's first line is kept as it is, since it is written to disk.
PLANTED_METAGRAPHS = """\
# planted benchmark metagraphs
M1: U -[rate]- B

M2: U -[friend]- U -[rate]- B

M3: U -[rate]- B -[hascat]- C -[hascat~]- B

M4: U -[rate]- B -[rate~]- U -[rate]- B
"""


def _planted_ratings(rng, n_users, n_items, ratings_per_user, noise, selection_strength=1.5,
                     value_strength=0.8):
    """Planted two-factor ratings drawn from ``rng``: returns ``a, c, users, items, values``.

    Scores follow 3 + value_strength * a_u . c_i for 2-d latents ``a`` (users)
    and ``c`` (items), clipped to [1, 5].  Users preferentially rate items
    they like (softmax selection), so the co-rating structure carries taste.
    The ratings are listed user by user.
    """
    a = rng.normal(0.0, 1.0, (n_users, 2))
    c = rng.normal(0.0, 1.0, (n_items, 2))
    users, items, values = [], [], []
    for u in range(n_users):
        affinity = a[u] @ c.T
        logits = selection_strength * affinity
        propensity = np.exp(logits - logits.max())
        propensity /= propensity.sum()
        rated = rng.choice(n_items, size=ratings_per_user, replace=False, p=propensity)
        score = 3.0 + value_strength * affinity[rated] + rng.normal(0.0, noise, len(rated))
        users.extend([u] * len(rated))
        items.extend(rated.tolist())
        values.extend(np.clip(score, 1.0, 5.0).tolist())
    return a, c, np.asarray(users), np.asarray(items), np.asarray(values)


def _friend_pairs(a, n_friends):
    """Rows of the symmetric kNN social graph (each user's ``n_friends`` nearest in ``a``), (u, v) sorted.

    The distances are computed 256 rows at a time, so memory grows with the user count, not its square.
    """
    pairs = set()
    for start in range(0, len(a), 256):
        dist = np.linalg.norm(a[start:start + 256, None, :] - a[None, :, :], axis=2)
        dist[np.arange(len(dist)), np.arange(start, start + len(dist))] = np.inf
        for u, row in enumerate(dist, start):
            for v in np.argsort(row)[:n_friends]:
                pairs.update(((u, int(v)), (int(v), u)))
    return [(f"u{u}", f"u{v}") for u, v in sorted(pairs)]


def _angle_bins(c, n):
    """Bin of each row of the 2-d latent ``c`` among ``n`` equal angular sectors."""
    angles = np.arctan2(c[:, 1], c[:, 0])
    return np.floor((angles + np.pi) / (2 * np.pi) * n).astype(int) % n


def _rating_rows(users, items, values):
    """``ratings.tsv`` rows; ``repr`` writes each rating's float exactly."""
    return [(f"u{u}", f"b{i}", repr(float(v))) for u, i, v in zip(users, items, values)]


def _write_dataset(out_dir, tables, entities, relations, dsl):
    """Write one TSV per table, ``schema.json`` and ``metagraphs.txt``; returns the schema path.

    ``tables`` maps a file stem to its rows (tuples of fields); ``relations``
    lists (name, head, tail) per relation, read from ``<name>.tsv``, and
    ratings come from ``ratings.tsv`` (user type U, item type B).
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in tables.items():
        with open(os.path.join(out_dir, f"{name}.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)
    schema = {
        "entities": entities,
        "relations": [{"name": name, "head": head, "tail": tail, "file": f"{name}.tsv"}
                      for name, head, tail in relations],
        "ratings": {"file": "ratings.tsv", "user_type": "U", "item_type": "B", "relation": "rate",
                    "range": [1.0, 5.0]},
    }
    path = os.path.join(out_dir, "schema.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
    with open(os.path.join(out_dir, "metagraphs.txt"), "w", encoding="utf-8") as fh:
        fh.write(dsl)
    return path


def write_rating_dataset(out_dir, seed=0, n_users=200, n_items=120, n_cats=8, ratings_per_user=18,
                         n_friends=8, noise=0.35, selection_strength=1.5, value_strength=0.8):
    """Planted rating HIN with complementary side structure, as schema + edge files + metagraph DSL.

    Besides the co-rating structure of :func:`_planted_ratings`, the social
    graph links users with similar latents and categories bin items by
    theirs, so each metagraph reveals part of the signal and fusing them
    recovers more of it than any single view.
    """
    rng = np.random.default_rng(seed)
    a, c, users, items, values = _planted_ratings(
        rng, n_users, n_items, ratings_per_user, noise, selection_strength, value_strength
    )
    tables = {
        "ratings": _rating_rows(users, items, values),
        "friend": _friend_pairs(a, n_friends),
        "hascat": [(f"b{i}", f"c{cat}") for i, cat in enumerate(_angle_bins(c, n_cats))],
    }
    relations = [("friend", "U", "U"), ("hascat", "B", "C")]
    return _write_dataset(out_dir, tables, ["U", "B", "C"], relations, PLANTED_METAGRAPHS)


def write_review_dataset(out_dir, seed=0, n_users=60, n_items=40, n_aspects=5, n_cats=4, n_cities=3,
                         n_states=2, n_stars=3, ratings_per_user=10, n_friends=5, noise=0.3):
    """Review-style dataset matching the bundled Yelp metagraph schema.

    Every rating gets a review entity (written by the user, about the
    business, mentioning aspects biased toward the business's latent
    topic), plus social, category, city, state and star-bucket relations.
    Aspects arrive as precomputed Review-Aspect edges; no text involved.
    """
    from importlib import resources

    rng = np.random.default_rng(seed)
    a, c, users, items, values = _planted_ratings(rng, n_users, n_items, ratings_per_user, noise)

    # one review per rating; it mentions its business's dominant topic most of the time.
    # The draws after the ratings keep this order (mentions, cities, states): the bytes depend on it.
    topic = _angle_bins(c, n_aspects)
    mention = []
    for k, i in enumerate(items):
        aspect = topic[i] if rng.random() < 0.8 else int(rng.integers(n_aspects))
        mention.append((f"r{k}", f"a{aspect}"))
        if rng.random() < 0.3:
            mention.append((f"r{k}", f"a{int(rng.integers(n_aspects))}"))
    incity = [(f"b{i}", f"ci{rng.integers(n_cities)}") for i in range(n_items)]
    instate = [(f"b{i}", f"st{rng.integers(n_states)}") for i in range(n_items)]

    # star bucket of each business's mean rating (3 when unrated); a stable sort keeps
    # each business's ratings in their listed order, so np.mean sums them as before
    order = np.argsort(items, kind="stable")
    bounds = np.searchsorted(items[order], np.arange(n_items + 1))
    by_item = values[order]
    mean_score = np.array([np.mean(by_item[lo:hi]) if hi > lo else 3.0
                           for lo, hi in zip(bounds, bounds[1:])])
    buckets = np.clip(((mean_score - 1.0) / 4.0 * n_stars).astype(int), 0, n_stars - 1)

    tables = {
        "ratings": _rating_rows(users, items, values),
        "write": [(f"u{u}", f"r{k}") for k, u in enumerate(users)],
        "about": [(f"r{k}", f"b{i}") for k, i in enumerate(items)],
        "mention": mention,
        "friend": _friend_pairs(a, n_friends),
        "hascat": [(f"b{i}", f"ca{cat}") for i, cat in enumerate(_angle_bins(c, n_cats))],
        "incity": incity,
        "instate": instate,
        "hasstar": [(f"b{i}", f"sr{b}") for i, b in enumerate(buckets)],
    }
    relations = [("write", "U", "R"), ("friend", "U", "U"), ("about", "R", "B"), ("mention", "R", "A"),
                 ("hascat", "B", "Ca"), ("incity", "B", "Ci"), ("instate", "B", "St"), ("hasstar", "B", "Sr")]
    dsl = (resources.files("hinfuse.data") / "yelp_metagraphs.txt").read_text(encoding="utf-8")
    return _write_dataset(out_dir, tables, ["U", "R", "A", "B", "Ca", "Ci", "St", "Sr"], relations, dsl)
