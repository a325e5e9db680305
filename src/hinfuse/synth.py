"""Synthetic data generators for benchmarks, demos and the test suites.

Three families:

* :func:`random_binary_hin` draws random binary adjacencies over a fixed
  review-style schema; paired with :data:`ORACLE_METAGRAPHS` it feeds the
  plan-vs-enumeration equivalence suite.
* :func:`planted_fm_problem` builds a feature table whose labels depend on
  a chosen subset of metagraph groups, for solver and selection tests.
* :func:`write_rating_dataset` materializes a small planted HIN on disk
  (schema, edge files, ratings, metagraph DSL) where the rating signal is
  split across social, category and co-rating structure, so fusing all
  metagraphs genuinely beats any single one.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import fmg, solvers
from .hin import EntitySet, HinStore, RelationDecl, SparseAdjacency

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


def _random_adjacency(rng, rows, cols, density):
    mask = rng.random((rows, cols)) < density
    row, col = np.nonzero(mask)
    return SparseAdjacency(rows, cols, row.astype(np.int64), col.astype(np.int64), np.ones(len(row)))


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
        adj = _random_adjacency(rng, counts[head], counts[tail], density)
        store.relations[name] = (RelationDecl(name, head, tail), adj)
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


PLANTED_METAGRAPHS = """\
# planted benchmark metagraphs
M1: U -[rate]- B

M2: U -[friend]- U -[rate]- B

M3: U -[rate]- B -[hascat]- C -[hascat~]- B

M4: U -[rate]- B -[rate~]- U -[rate]- B
"""


def planted_rating_data(
    seed,
    n_users=200,
    n_items=120,
    n_cats=8,
    ratings_per_user=18,
    n_friends=8,
    noise=0.35,
    selection_strength=1.5,
    value_strength=0.8,
):
    """Planted two-factor rating model with complementary side structure.

    Scores follow 3 + a_u . c_i for 2-d latents.  Users preferentially rate
    items they like (softmax selection), so the co-rating structure carries
    taste; the social graph links users with similar a and categories bin
    items by c, so each metagraph reveals part of the signal and fusing
    them recovers more of it than any single view.
    """
    rng = np.random.default_rng(seed)
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

    # social edges: nearest neighbours in user-latent space, kept symmetric
    friend_pairs = set()
    dist = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    for u in range(n_users):
        for v in np.argsort(dist[u])[:n_friends]:
            friend_pairs.add((u, int(v)))
            friend_pairs.add((int(v), u))

    # categories: angular bins of the item latent
    angles = np.arctan2(c[:, 1], c[:, 0])
    cats = np.floor((angles + np.pi) / (2 * np.pi) * n_cats).astype(int) % n_cats

    return {
        "users": np.asarray(users),
        "items": np.asarray(items),
        "values": np.asarray(values),
        "friends": sorted(friend_pairs),
        "categories": cats,
        "n_users": n_users,
        "n_items": n_items,
        "n_cats": n_cats,
    }


def write_rating_dataset(out_dir, seed=0, **kwargs):
    """Materialize a planted rating HIN as schema + edge files + metagraph DSL."""
    data = planted_rating_data(seed, **kwargs)
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "ratings.tsv"), "w", encoding="utf-8") as fh:
        for u, i, v in zip(data["users"], data["items"], data["values"]):
            fh.write(f"u{u}\tb{i}\t{float(v)!r}\n")
    with open(os.path.join(out_dir, "friend.tsv"), "w", encoding="utf-8") as fh:
        for u, v in data["friends"]:
            fh.write(f"u{u}\tu{v}\n")
    with open(os.path.join(out_dir, "hascat.tsv"), "w", encoding="utf-8") as fh:
        for i, cat in enumerate(data["categories"]):
            fh.write(f"b{i}\tc{cat}\n")

    schema = {
        "entities": ["U", "B", "C"],
        "relations": [
            {"name": "friend", "head": "U", "tail": "U", "file": "friend.tsv"},
            {"name": "hascat", "head": "B", "tail": "C", "file": "hascat.tsv"},
        ],
        "ratings": {
            "file": "ratings.tsv",
            "user_type": "U",
            "item_type": "B",
            "relation": "rate",
            "range": [1.0, 5.0],
        },
    }
    with open(os.path.join(out_dir, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
    with open(os.path.join(out_dir, "metagraphs.txt"), "w", encoding="utf-8") as fh:
        fh.write(PLANTED_METAGRAPHS)
    return os.path.join(out_dir, "schema.json")


def scaled_fm_problem(seed, n_samples, n_metagraphs=2, rank=10, K=10, lam=0.05):
    """Fixed-width problem at a chosen sample count, for timing runs."""
    problem, _, _ = planted_fm_problem(
        seed, n_samples=n_samples, n_metagraphs=n_metagraphs, rank=rank, K=K, lam=lam
    )
    return problem


def write_review_dataset(
    out_dir,
    seed=0,
    n_users=60,
    n_items=40,
    n_aspects=5,
    n_cats=4,
    n_cities=3,
    n_states=2,
    n_stars=3,
    ratings_per_user=10,
    n_friends=5,
    noise=0.3,
):
    """Review-style dataset matching the bundled Yelp metagraph schema.

    Every rating gets a review entity (written by the user, about the
    business, mentioning aspects biased toward the business's latent
    topic), plus social, category, city, state and star-bucket relations.
    Aspects arrive as precomputed Review-Aspect edges; no text involved.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_users, 2))
    c = rng.normal(0.0, 1.0, (n_items, 2))

    users, items, values = [], [], []
    for u in range(n_users):
        affinity = a[u] @ c.T
        logits = 1.5 * affinity
        propensity = np.exp(logits - logits.max())
        propensity /= propensity.sum()
        rated = rng.choice(n_items, size=ratings_per_user, replace=False, p=propensity)
        score = 3.0 + 0.8 * affinity[rated] + rng.normal(0.0, noise, len(rated))
        users.extend([u] * len(rated))
        items.extend(rated.tolist())
        values.extend(np.clip(score, 1.0, 5.0).tolist())

    os.makedirs(out_dir, exist_ok=True)

    def tsv(name, rows):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write("\t".join(str(x) for x in row) + "\n")

    tsv("ratings.tsv", ((f"u{u}", f"b{i}", repr(float(v))) for u, i, v in zip(users, items, values)))

    # one review per rating; it mentions its business's dominant topic most of the time
    angles = np.arctan2(c[:, 1], c[:, 0])
    topic = np.floor((angles + np.pi) / (2 * np.pi) * n_aspects).astype(int) % n_aspects
    write_rows, about_rows, mention_rows = [], [], []
    for k, (u, i) in enumerate(zip(users, items)):
        write_rows.append((f"u{u}", f"r{k}"))
        about_rows.append((f"r{k}", f"b{i}"))
        aspect = topic[i] if rng.random() < 0.8 else int(rng.integers(n_aspects))
        mention_rows.append((f"r{k}", f"a{aspect}"))
        if rng.random() < 0.3:
            mention_rows.append((f"r{k}", f"a{int(rng.integers(n_aspects))}"))
    tsv("write.tsv", write_rows)
    tsv("about.tsv", about_rows)
    tsv("mention.tsv", mention_rows)

    dist = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    friends = set()
    for u in range(n_users):
        for v in np.argsort(dist[u])[:n_friends]:
            friends.add((u, int(v)))
            friends.add((int(v), u))
    tsv("friend.tsv", ((f"u{u}", f"u{v}") for u, v in sorted(friends)))

    cats = np.floor((angles + np.pi) / (2 * np.pi) * n_cats).astype(int) % n_cats
    tsv("hascat.tsv", ((f"b{i}", f"ca{cat}") for i, cat in enumerate(cats)))
    tsv("incity.tsv", ((f"b{i}", f"ci{rng.integers(n_cities)}") for i in range(n_items)))
    tsv("instate.tsv", ((f"b{i}", f"st{rng.integers(n_states)}") for i in range(n_items)))
    mean_score = np.full(n_items, 3.0)
    for i in range(n_items):
        mine = [v for it, v in zip(items, values) if it == i]
        if mine:
            mean_score[i] = np.mean(mine)
    buckets = np.clip(((mean_score - 1.0) / 4.0 * n_stars).astype(int), 0, n_stars - 1)
    tsv("hasstar.tsv", ((f"b{i}", f"sr{b}") for i, b in enumerate(buckets)))

    schema = {
        "entities": ["U", "R", "A", "B", "Ca", "Ci", "St", "Sr"],
        "relations": [
            {"name": "write", "head": "U", "tail": "R", "file": "write.tsv"},
            {"name": "friend", "head": "U", "tail": "U", "file": "friend.tsv"},
            {"name": "about", "head": "R", "tail": "B", "file": "about.tsv"},
            {"name": "mention", "head": "R", "tail": "A", "file": "mention.tsv"},
            {"name": "hascat", "head": "B", "tail": "Ca", "file": "hascat.tsv"},
            {"name": "incity", "head": "B", "tail": "Ci", "file": "incity.tsv"},
            {"name": "instate", "head": "B", "tail": "St", "file": "instate.tsv"},
            {"name": "hasstar", "head": "B", "tail": "Sr", "file": "hasstar.tsv"},
        ],
        "ratings": {
            "file": "ratings.tsv",
            "user_type": "U",
            "item_type": "B",
            "relation": "rate",
            "range": [1.0, 5.0],
        },
    }
    with open(os.path.join(out_dir, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
    from importlib import resources

    dsl = (resources.files("hinfuse.data") / "yelp_metagraphs.txt").read_text(encoding="utf-8")
    with open(os.path.join(out_dir, "metagraphs.txt"), "w", encoding="utf-8") as fh:
        fh.write(dsl)
    return os.path.join(out_dir, "schema.json")
