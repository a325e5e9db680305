"""The synthetic dataset writers' output bytes are pinned.

The benchmark's reference outputs (``perfbench/reference.json``) and most
pipeline tests are computed from these files, so a refactor of
``hinfuse.synth`` must leave every byte alone.  The digests also move if
numpy changes a ``Generator`` stream (``normal``, ``choice``, ``random`` or
``integers`` under ``default_rng``); then the reference outputs need
regenerating too.
"""

import hashlib
import os

import pytest

from hinfuse import synth

COLD_MF = dict(n_users=160, n_items=80, ratings_per_user=10, n_friends=5)  # perfbench cold-mf generator

DIGESTS = [
    ("review-default", synth.write_review_dataset, {},
     "7c316d4ea2a775c0535c68e02a131fde526595ac54f82ab35f7802ad2555040b"),
    ("review-cold-mf", synth.write_review_dataset, COLD_MF,
     "b6b679a5b1f33ae3425f8c1077928f1e6caa0fb168c49b53dfabbcb833abf4ba"),
    ("rating-default", synth.write_rating_dataset, {},
     "ff807e6d6d2624e2fc237154875bdc2088a8259261c5316ff2676ff8b4eb4561"),
]


def tree_digest(directory):
    """SHA-256 over the sorted file names and each file's bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("writer, kwargs, digest", [d[1:] for d in DIGESTS], ids=[d[0] for d in DIGESTS])
def test_dataset_bytes_pinned(tmp_path, writer, kwargs, digest):
    schema = writer(str(tmp_path), seed=0, **kwargs)
    assert schema == os.path.join(str(tmp_path), "schema.json")
    assert tree_digest(str(tmp_path)) == digest
