"""Typed graph storage: entity sets, relation adjacencies and rating splits.

Edge files are UTF-8 text with one edge per line, fields separated by a
single TAB: ``head_id<TAB>tail_id[<TAB>weight]``.  Ratings files use
``user_id<TAB>item_id<TAB>rating``.  A schema document (JSON) declares the
entity types, one file-backed adjacency per relation, and the ratings file.

The store holds every relation as the matrix the metagraph plans multiply:
a float64 ``scipy.sparse.csr_matrix`` in canonical form (duplicate edges
summed, column indices sorted), shaped (head entities, tail entities) at the
final entity counts.  It is built once, at ingestion; readers never write it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class EdgeFileError(ValueError):
    """Malformed line in an edge or ratings file."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class ValidationError(ValueError):
    """Data that parses but violates a declared constraint."""


@dataclass
class EntitySet:
    """Dense 0-based index over one entity type.

    Ids are assigned in order of first appearance, so re-running ingestion
    over identical files reproduces identical indices.
    """

    type_name: str
    id_map: dict = field(default_factory=dict)

    @property
    def count(self):
        return len(self.id_map)

    def index(self, external_id):
        """Return the dense index for ``external_id``, assigning on first use."""
        idx = self.id_map.get(external_id)
        if idx is None:
            idx = len(self.id_map)
            self.id_map[external_id] = idx
        return idx


@dataclass(frozen=True)
class RelationDecl:
    name: str
    head_type: str
    tail_type: str


def _canonical_csr(weight, row, col, shape):
    """The float64 CSR matrix of the (row, col, weight) edges, duplicates summed."""
    m = sp.csr_matrix((np.asarray(weight, dtype=np.float64), (row, col)), shape=shape)
    m.sum_duplicates()
    return m


@dataclass
class HinStore:
    """Entity sets plus one adjacency per relation; plans read the matrices and never write them."""

    entities: dict = field(default_factory=dict)
    # name -> (RelationDecl, canonical float64 csr_matrix shaped (head count, tail count))
    relations: dict = field(default_factory=dict)

    def entity(self, type_name):
        try:
            return self.entities[type_name]
        except KeyError:
            raise KeyError(f"undeclared entity type {type_name!r}") from None

    def adjacency(self, relation):
        return self.relations[relation][1]


@dataclass
class RatingSet:
    """Observed (user, item, rating) triples for one split role."""

    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    role: str = "all"

    def __len__(self):
        return len(self.values)


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors

    @property
    def items(self):
        return self.errors + self.warnings


def _parse_edge_line(path, lineno, line):
    parts = line.rstrip("\n").split("\t")
    if len(parts) == 2:
        head, tail = parts
        weight = 1.0
    elif len(parts) == 3:
        head, tail, raw = parts
        try:
            weight = float(raw)
        except ValueError:
            raise EdgeFileError(path, lineno, f"weight {raw!r} is not a number") from None
    else:
        raise EdgeFileError(path, lineno, f"expected 2 or 3 TAB-separated fields, got {len(parts)}")
    if not head or not tail:
        raise EdgeFileError(path, lineno, "empty entity id")
    if not 0 <= weight < np.inf:  # nan fails both comparisons
        raise ValidationError(f"{path}:{lineno}: {'negative' if weight < 0 else 'non-finite'} weight {weight}")
    return head, tail, weight


def load_edges(path, decl, entities):
    """Read one relation's edge file into a canonical CSR adjacency.

    Duplicate (head, tail) lines have their weights summed; a missing weight
    defaults to 1.  External ids not seen before extend the entity id maps;
    the matrix is shaped by the entity counts after the file is read.
    """
    head_set = entities[decl.head_type]
    tail_set = entities[decl.tail_type]
    head_ids, tail_ids = head_set.id_map, tail_set.id_map
    head_get, tail_get = head_ids.get, tail_ids.get
    heads, tails, weights = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 2 and parts[0] and parts[1] and not line.isspace():
                head, tail = parts
                weight = 1.0
            elif not line.strip():
                continue
            else:  # weighted or malformed
                head, tail, weight = _parse_edge_line(path, lineno, line)
            # EntitySet.index, inlined: ids are assigned in order of first appearance
            h = head_get(head)
            if h is None:
                h = head_ids[head] = len(head_ids)
            t = tail_get(tail)
            if t is None:
                t = tail_ids[tail] = len(tail_ids)
            heads.append(h)
            tails.append(t)
            weights.append(weight)
    shape = (head_set.count, tail_set.count)
    keys = np.asarray(heads, dtype=np.int64) * shape[1] + np.asarray(tails, dtype=np.int64)
    keys, inverse = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(keys, shape[1])
    # np.bincount adds each edge's weights in file order; a sort of the duplicates would not keep it
    sums = np.bincount(inverse, weights)
    overflow = np.flatnonzero(~np.isfinite(sums))  # finite weights can sum past the float range
    if overflow.size:
        k = overflow[0]
        raise ValidationError(f"{path}: the weights of edge ({list(head_ids)[rows[k]]}, "
                              f"{list(tail_ids)[cols[k]]}) sum to {sums[k]}")
    return _canonical_csr(sums, rows, cols, shape)


def load_ratings(path, user_set, item_set, scale):
    """Read a ratings file; ratings outside ``scale``, a (lo, hi) pair, are rejected."""
    lo, hi = scale
    users, items, values = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise EdgeFileError(path, lineno, f"expected 3 TAB-separated fields, got {len(parts)}")
            try:
                rating = float(parts[2])
            except ValueError:
                raise EdgeFileError(path, lineno, f"rating {parts[2]!r} is not a number") from None
            if not lo <= rating <= hi:
                raise ValidationError(f"{path}:{lineno}: rating {rating} outside [{lo}, {hi}]")
            users.append(user_set.index(parts[0]))
            items.append(item_set.index(parts[1]))
            values.append(rating)
    return RatingSet(
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        role="all",
    )


def rating_adjacency(ratings, n_users, n_items, binarize=True):
    """Build the user-item adjacency used for metagraph traversal.

    ``binarize`` maps every rating to weight 1 (default); otherwise raw
    rating values are kept as weights.
    """
    weight = np.ones(len(ratings)) if binarize else ratings.values
    return _canonical_csr(weight, ratings.users, ratings.items, (n_users, n_items))


def attach_ratings(hin, ratings, decl, binarize=True):
    """Insert the rating adjacency for ``decl`` into ``hin`` (replacing any prior one)."""
    adj = rating_adjacency(
        ratings, hin.entity(decl.head_type).count, hin.entity(decl.tail_type).count, binarize=binarize
    )
    hin.relations[decl.name] = (decl, adj)
    return hin


def validate(hin):
    """Report dimension mismatches (errors), empty relations and orphan entity types (warnings)."""
    report = ValidationReport()
    referenced = set()
    for name, (decl, adj) in hin.relations.items():
        referenced.update((decl.head_type, decl.tail_type))
        for side, type_name, have in zip(("rows", "cols"), (decl.head_type, decl.tail_type), adj.shape):
            want = hin.entity(type_name).count
            if have != want:
                report.errors.append(
                    f"relation {name!r}: {side}={have} but entity type {type_name!r} has {want} entities"
                )
        if adj.nnz == 0:
            report.warnings.append(f"relation {name!r} has no edges")
    for type_name in hin.entities:
        if type_name not in referenced:
            report.warnings.append(f"entity type {type_name!r} is not used by any relation")
    return report


def check_fractions(fractions):
    """Fail unless ``fractions`` is three nonnegative numbers (train, valid, test) that sum to 1."""
    if len(fractions) != 3:
        raise ValueError(f"fractions must be three numbers (train, valid, test), got {fractions}")
    if min(fractions) < 0:
        raise ValueError(f"fractions must be nonnegative, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:  # a NaN fails too
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")


def split_ratings(ratings, fractions, seed):
    """Partition triples into (train, valid, test) by a seeded uniform shuffle.

    Sizes are floor(f * N) for valid and test, with the remainder assigned
    to train.  The same seed always produces the same partition.
    """
    check_fractions(fractions)
    _, f_valid, f_test = fractions
    n = len(ratings)
    n_valid = int(f_valid * n)
    n_test = int(f_test * n)
    n_train = n - n_valid - n_test
    perm = np.random.default_rng(seed).permutation(n)

    def take(idx, role):
        return RatingSet(ratings.users[idx], ratings.items[idx], ratings.values[idx], role=role)

    return (
        take(perm[:n_train], "train"),
        take(perm[n_train : n_train + n_valid], "valid"),
        take(perm[n_train + n_valid :], "test"),
    )


def rating_range(schema):
    """The rating scale ``(lo, hi)`` of the schema's ``ratings.range``; ``(1.0, 5.0)`` where it is absent.

    Ingest rejects ratings outside it, and the pipeline clips predictions to it.
    """
    value = (schema.get("ratings") or {}).get("range", (1.0, 5.0))
    numbers = isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v) for v in value)
    if not (numbers and value[0] < value[1]):
        raise ValidationError(f"ratings.range must be two finite numbers lo < hi, got {value!r}")
    return float(value[0]), float(value[1])


def load_schema(path):
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    for key in ("entities", "relations"):
        if key not in schema:
            raise ValidationError(f"schema is missing the {key!r} section")
    return schema


def ingest(path):
    """Load the schema document at ``path`` into ``(HinStore, RatingSet, RelationDecl)``.

    Data file names resolve against the schema's directory.  The ratings
    file is read first (users/items get the lowest indices), then relation
    edge files in declared order.  The rating adjacency is *not* attached
    here; callers feed it one split (see :func:`attach_ratings`), so held-out
    ratings stay out of it.  Other relations are read whole: a held-out
    rating's review keeps its edges, and review metagraphs reach its pair.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    schema = load_schema(path)

    store = HinStore()
    for type_name in schema["entities"]:
        store.entities[type_name] = EntitySet(type_name)

    ratings = None
    rating_decl = None
    rspec = schema.get("ratings")
    if rspec is not None:
        ratings = load_ratings(os.path.join(base_dir, rspec["file"]), store.entity(rspec["user_type"]),
                               store.entity(rspec["item_type"]), rating_range(schema))
        rating_decl = RelationDecl(rspec.get("relation", "rate"), rspec["user_type"], rspec["item_type"])

    for rel in schema["relations"]:
        decl = RelationDecl(rel["name"], rel["head"], rel["tail"])
        if decl.head_type not in store.entities or decl.tail_type not in store.entities:
            raise ValidationError(f"relation {decl.name!r} references an undeclared entity type")
        if decl.name in store.relations:
            raise ValidationError(f"duplicate relation name {decl.name!r}")
        if rating_decl is not None and decl.name == rating_decl.name:
            raise ValidationError(f"relation {decl.name!r} is the ratings relation, whose edges come from the "
                                  f"ratings file; rename the relation or set ratings.relation")
        adj = load_edges(os.path.join(base_dir, rel["file"]), decl, store.entities)
        store.relations[decl.name] = (decl, adj)

    # id maps may have grown after an adjacency was built; pad to the final counts in place
    for decl, adj in store.relations.values():
        adj.resize(store.entity(decl.head_type).count, store.entity(decl.tail_type).count)
    return store, ratings, rating_decl
