import json

import numpy as np
import pytest
import scipy.sparse as sp

from hinfuse import hin


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def registry(*types):
    return {t: hin.EntitySet(t) for t in types}


DECL = hin.RelationDecl("rate", "U", "B")


class TestLoadEdges:
    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "e.tsv", "")
        adj = hin.load_edges(path, DECL, registry("U", "B"))
        assert adj.nnz == 0

    def test_distinct_pairs(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tx\na\ty\nb\tx\n")
        adj = hin.load_edges(path, DECL, registry("U", "B"))
        assert adj.nnz == 3
        assert adj.toarray().tolist() == [[1.0, 1.0], [1.0, 0.0]]

    def test_duplicates_sum(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tx\na\tx\n")
        adj = hin.load_edges(path, DECL, registry("U", "B"))
        assert adj.toarray().tolist() == [[2.0]]

    def test_explicit_weights(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tx\t0.5\na\tx\t2\n")
        adj = hin.load_edges(path, DECL, registry("U", "B"))
        assert adj.toarray().tolist() == [[2.5]]

    def test_malformed_line_reports_position(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tx\nbad-line\n")
        with pytest.raises(hin.EdgeFileError, match=r":2:") as err:
            hin.load_edges(path, DECL, registry("U", "B"))
        assert err.value.lineno == 2

    def test_non_numeric_weight(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tx\theavy\n")
        with pytest.raises(hin.EdgeFileError, match="not a number"):
            hin.load_edges(path, DECL, registry("U", "B"))

    def test_negative_weight_rejected(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tx\t-1\n")
        with pytest.raises(hin.ValidationError, match="negative"):
            hin.load_edges(path, DECL, registry("U", "B"))

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
    def test_non_finite_weight_rejected(self, tmp_path, raw):
        path = write(tmp_path / "e.tsv", f"a\tx\t1\nb\ty\t{raw}\n")
        with pytest.raises(hin.ValidationError, match=r"e\.tsv:2: non-finite weight"):
            hin.load_edges(path, DECL, registry("U", "B"))

    def test_weights_summing_past_float_range_rejected(self, tmp_path):
        # each line's weight is finite; the sum of the repeated (b, y) pair is not
        path = write(tmp_path / "e.tsv", "a\tx\t1\nb\ty\t1e308\nb\ty\t1e308\n")
        with pytest.raises(hin.ValidationError, match=r"e\.tsv: the weights of edge \(b, y\) sum to inf"):
            hin.load_edges(path, DECL, registry("U", "B"))

    def test_duplicates_sum_in_file_order(self, tmp_path):
        # float addition is not associative: 1e16 + 1 + 1 == 1e16 < 1 + 1 + 1e16.  Sorting a row's
        # 60 entries by column, as sum_duplicates does, does not keep their file order.
        weights = [1e16] + [1.0] * 59
        # even lines carry their weight, odd ones default to 1
        lines = "".join(f"a\tx{i % 3}\t{w!r}\n" if i % 2 == 0 else f"a\tx{i % 3}\n"
                        for i, w in enumerate(weights))
        adj = hin.load_edges(write(tmp_path / "e.tsv", lines), DECL, registry("U", "B"))
        want = [0.0, 0.0, 0.0]
        for i, w in enumerate(weights):
            want[i % 3] += w
        assert adj.toarray().ravel().tolist() == want

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        ents = registry("U", "B")
        adj = hin.load_edges(write(tmp_path / "b.tsv", "a\tx\n\n \t \n"), DECL, ents)
        assert adj.nnz == 1 and ents["U"].id_map == {"a": 0} and ents["B"].id_map == {"x": 0}
        path = write(tmp_path / "e.tsv", "a\tx\n\n \t \nbad-line\n")
        with pytest.raises(hin.EdgeFileError, match=r":4: expected 2 or 3 TAB-separated fields, got 1"):
            hin.load_edges(path, DECL, registry("U", "B"))
        with pytest.raises(hin.EdgeFileError, match=r":2: empty entity id"):
            hin.load_edges(write(tmp_path / "f.tsv", "a\tx\n\tx\n"), DECL, registry("U", "B"))

    def test_ids_assigned_by_first_appearance(self, tmp_path):
        path = write(tmp_path / "e.tsv", "b\tx\na\ty\nb\ty\n")
        ents = registry("U", "B")
        hin.load_edges(path, DECL, ents)
        assert ents["U"].id_map == {"b": 0, "a": 1}
        assert ents["B"].id_map == {"x": 0, "y": 1}


class TestValidate:
    def build(self):
        store = hin.HinStore()
        ents = registry("U", "B")
        for name, n in (("U", 2), ("B", 3)):
            for i in range(n):
                ents[name].index(f"{name}{i}")
        store.entities = ents
        store.relations["rate"] = (DECL, sp.csr_matrix(([1.0], ([0], [1])), shape=(2, 3)))
        return store

    def test_consistent_store_is_clean(self):
        report = hin.validate(self.build())
        assert report.ok and not report.items

    def test_dimension_mismatch_is_error(self):
        store = self.build()
        decl, adj = store.relations["rate"]
        store.relations["rate"] = (decl, adj[:1])
        report = hin.validate(store)
        assert not report.ok
        assert len(report.errors) == 1 and "rows=1" in report.errors[0]

    def test_empty_relation_is_warning(self):
        store = self.build()
        store.relations["rate"] = (DECL, sp.csr_matrix((2, 3)))
        report = hin.validate(store)
        assert report.ok and len(report.warnings) == 1

    def test_orphan_entity_type_is_warning(self):
        store = self.build()
        store.entities["C"] = hin.EntitySet("C")
        report = hin.validate(store)
        assert report.ok and any("'C'" in w for w in report.warnings)


def ratings(n):
    return hin.RatingSet(np.arange(n), np.arange(n), np.linspace(1, 5, n), role="all")


class TestSplitRatings:
    def test_all_train(self):
        train, valid, test = hin.split_ratings(ratings(7), (1.0, 0.0, 0.0), seed=1)
        assert (len(train), len(valid), len(test)) == (7, 0, 0)

    def test_floor_plus_remainder(self):
        train, valid, test = hin.split_ratings(ratings(10), (0.8, 0.1, 0.1), seed=1)
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_remainder_goes_to_train(self):
        train, valid, test = hin.split_ratings(ratings(11), (0.8, 0.1, 0.1), seed=1)
        assert (len(train), len(valid), len(test)) == (9, 1, 1)

    def test_same_seed_same_split(self):
        a = hin.split_ratings(ratings(50), (0.8, 0.1, 0.1), seed=9)
        b = hin.split_ratings(ratings(50), (0.8, 0.1, 0.1), seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.users, y.users) and np.array_equal(x.values, y.values)

    def test_disjoint_union(self):
        rs = ratings(37)
        parts = hin.split_ratings(rs, (0.6, 0.2, 0.2), seed=3)
        seen = np.concatenate([p.users for p in parts])
        assert sorted(seen.tolist()) == sorted(rs.users.tolist())
        assert sum(len(p) for p in parts) == len(rs)

    def test_roles(self):
        parts = hin.split_ratings(ratings(10), (0.8, 0.1, 0.1), seed=0)
        assert [p.role for p in parts] == ["train", "valid", "test"]

    def test_negative_fraction(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hin.split_ratings(ratings(10), (1.2, -0.1, -0.1), seed=0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            hin.split_ratings(ratings(10), (0.5, 0.2, 0.2), seed=0)


def write_dataset(tmp_path):
    write(tmp_path / "ratings.tsv", "u1\tb1\t4\nu2\tb1\t3\nu1\tb2\t5\n")
    write(tmp_path / "friend.tsv", "u1\tu2\n")
    schema = {
        "entities": ["U", "B"],
        "relations": [{"name": "friend", "head": "U", "tail": "U", "file": "friend.tsv"}],
        "ratings": {"file": "ratings.tsv", "user_type": "U", "item_type": "B", "relation": "rate"},
    }
    return write(tmp_path / "schema.json", json.dumps(schema))


class TestIngest:
    def test_roundtrip(self, tmp_path):
        store, rs, decl = hin.ingest(write_dataset(tmp_path))
        assert store.entity("U").count == 2 and store.entity("B").count == 2
        assert len(rs) == 3 and decl.name == "rate"
        assert "rate" not in store.relations  # attached explicitly, per split policy

    def test_deterministic_rerun(self, tmp_path):
        path = write_dataset(tmp_path)
        s1, r1, _ = hin.ingest(path)
        s2, r2, _ = hin.ingest(path)
        assert s1.entity("U").id_map == s2.entity("U").id_map
        assert np.array_equal(r1.values, r2.values)
        a1, a2 = s1.adjacency("friend"), s2.adjacency("friend")
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a1, name), getattr(a2, name)), name

    def test_rating_out_of_range_rejected(self, tmp_path):
        write(tmp_path / "ratings.tsv", "u1\tb1\t9\n")
        write(tmp_path / "friend.tsv", "")
        schema = {
            "entities": ["U", "B"],
            "relations": [],
            "ratings": {"file": "ratings.tsv", "user_type": "U", "item_type": "B"},
        }
        path = write(tmp_path / "schema.json", json.dumps(schema))
        with pytest.raises(hin.ValidationError, match="outside"):
            hin.ingest(path)

    def test_attach_ratings_binarized_and_raw(self, tmp_path):
        store, rs, decl = hin.ingest(write_dataset(tmp_path))
        hin.attach_ratings(store, rs, decl)
        assert set(store.adjacency("rate").data.tolist()) == {1.0}
        hin.attach_ratings(store, rs, decl, binarize=False)
        assert set(store.adjacency("rate").data.tolist()) == {3.0, 4.0, 5.0}

    def test_adjacency_covers_rating_only_entities(self, tmp_path):
        # u3 appears only in the ratings file and u4 only in a later relation's file;
        # the friend adjacency must still span both
        write(tmp_path / "ratings.tsv", "u1\tb1\t4\nu3\tb1\t2\n")
        write(tmp_path / "friend.tsv", "u2\tu1\nu1\tu2\nu2\tu1\n")
        write(tmp_path / "follow.tsv", "u4\tu1\n")
        schema = {
            "entities": ["U", "B"],
            "relations": [{"name": "friend", "head": "U", "tail": "U", "file": "friend.tsv"},
                          {"name": "follow", "head": "U", "tail": "U", "file": "follow.tsv"}],
            "ratings": {"file": "ratings.tsv", "user_type": "U", "item_type": "B"},
        }
        store, _, _ = hin.ingest(write(tmp_path / "schema.json", json.dumps(schema)))
        assert store.entity("U").count == 4
        adj = store.adjacency("friend")
        assert adj.shape == (4, 4) and adj.dtype == np.float64
        # u1, u3, u2, u4 = 0, 1, 2, 3; the duplicate u2 -> u1 line sums
        want = sp.csr_matrix(([1.0, 1.0, 1.0], ([2, 0, 2], [0, 2, 0])), shape=(4, 4))
        want.sum_duplicates()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(adj, name), getattr(want, name)), name
        assert hin.validate(store).ok
