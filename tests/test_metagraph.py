import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hinfuse import hin
from hinfuse import metagraph as mg
from hinfuse import synth
from hinfuse.hin import EntitySet, HinStore, RelationDecl
from hinfuse.metagraph import FaceSplitStep, HadamardStep, LoadStep, MatMulStep

M3_TEXT = "M3: U -[rate]- B -[rate~]- U -[rate]- B"
M9_TEXT = (
    "M9: U -[write]- R -( -[mention]- A -[mention~]- | -[about]- B -[about~]- )- "
    "R -[write~]- U -[rate]- B"
)


def store_with(entities, relations):
    """entities: {type: count}; relations: {name: (head, tail, dense array)}."""
    store = HinStore()
    for type_name, count in entities.items():
        es = EntitySet(type_name)
        for i in range(count):
            es.index(f"{type_name.lower()}{i}")
        store.entities[type_name] = es
    for name, (head, tail, dense) in relations.items():
        store.relations[name] = (RelationDecl(name, head, tail), sp.csr_matrix(dense, dtype=np.float64))
    return store


def two_by_two_store():
    return store_with({"U": 2, "B": 2}, {"rate": ("U", "B", [[1, 1], [1, 0]])})


class TestParse:
    def test_m3_is_a_four_node_path(self):
        spec = mg.parse_metagraph(M3_TEXT)
        assert spec.name == "M3"
        nodes, edges = mg._instance_graph(spec)
        assert nodes == ["U", "B", "U", "B"]
        assert spec.source_type == "U" and spec.sink_type == "B"
        assert len(edges) == 3
        assert [edge.reverse for *_, edge in edges] == [False, True, False]

    def test_m9_has_one_block_of_two_branches(self):
        spec = mg.parse_metagraph(M9_TEXT)
        nodes, edges = mg._instance_graph(spec)
        assert sorted(nodes) == sorted(["U", "R", "A", "B", "R", "U", "B"])
        blocks = [c for c in spec.connectors if isinstance(c, mg.Block)]
        assert len(blocks) == 1 and len(blocks[0].branches) == 2
        # the block sits between the two R nodes
        i = spec.connectors.index(blocks[0])
        assert spec.types[i] == "R" and spec.types[i + 1] == "R"
        assert len(edges) == 7

    def test_branch_must_end_with_edge(self):
        with pytest.raises(mg.MetagraphSyntaxError, match="joining the block's closing node"):
            mg.parse_metagraph("X: U -( -[rate]- B | -[write]- R -[about]- B )- B -[rate~]- U")

    def test_branch_cannot_start_with_type(self):
        with pytest.raises(mg.MetagraphSyntaxError, match="out of the block's opening node"):
            mg.parse_metagraph("X: U -( B -[rate~]- | -[rate]- B -[rate~]- )- U -[rate]- B")

    def test_single_branch_block_rejected(self):
        with pytest.raises(mg.MetagraphSyntaxError, match="at least two branches"):
            mg.parse_metagraph("X: U -( -[rate]- B -[rate~]- )- U -[rate]- B")

    def test_lone_node_rejected(self):
        with pytest.raises(mg.MetagraphValidationError, match="at least one edge"):
            mg.parse_metagraph("X: U")

    def test_syntax_error_carries_position(self):
        with pytest.raises(mg.MetagraphSyntaxError) as err:
            mg.parse_metagraph("M: U -[rate- B")
        assert err.value.position is not None

    def test_roundtrip_through_format(self):
        for spec in GRAMMAR_SPECS:
            again = mg.parse_metagraph(mg.format_metagraph(spec))
            assert again == spec, spec

    def test_stanza_file_parsing(self):
        specs = mg.parse_metagraphs(f"# comment\n{M3_TEXT}\n\n{M9_TEXT}\n")
        assert [s.name for s in specs] == ["M3", "M9"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(mg.MetagraphValidationError, match="duplicate"):
            mg.parse_metagraphs(f"{M3_TEXT}\n\n{M3_TEXT}\n")


class TestSpecShape:
    """A hand-built spec must be a chain: one more type than connectors, at least one connector."""

    @pytest.mark.parametrize("types,connectors", [
        (("U", "B", "U"), (mg.EdgeRef("rate"),)),
        (("U", "B"), (mg.EdgeRef("rate"), mg.EdgeRef("rate", True))),
        (("U",), ()),
        ((), ()),
    ])
    def test_types_must_alternate_with_connectors(self, types, connectors):
        with pytest.raises(mg.MetagraphValidationError, match="at least one edge"):
            mg.MetagraphSpec("X", types, connectors)

    def test_hand_built_chain_equals_its_parse(self):
        spec = mg.MetagraphSpec("X", ("U", "B", "U"), (mg.EdgeRef("rate"), mg.EdgeRef("rate", True)))
        assert spec == mg.parse_metagraph("X: U -[rate]- B -[rate~]- U")
        assert mg.format_metagraph(spec) == "X: U -[rate]- B -[rate~]- U"


def edges_leaving(type_name):
    """Each edge that leaves ``type_name`` in the oracle schema, with the type it reaches."""
    out = []
    for name, head, tail in synth.ORACLE_SCHEMA["relations"]:
        if head == type_name:
            out.append((mg.EdgeRef(name), tail))
        if tail == type_name:
            out.append((mg.EdgeRef(name, True), head))
    return out


def random_walk(rng, start, length, depth):
    """Types and connectors of a walk of ``length`` connectors from ``start``; blocks nest ``depth`` deep."""
    types, connectors = [start], []
    for _ in range(length):
        if depth and rng.random() < 0.4:
            while True:  # branches drawn until all end on one type
                walks = [random_walk(rng, types[-1], int(rng.integers(1, 3)), depth - 1)
                         for _ in range(int(rng.integers(2, 4)))]
                if len({walk[-1] for walk, _ in walks}) == 1:
                    break
            conn = mg.Block(tuple(mg.Branch(tuple(c), tuple(t[1:-1])) for t, c in walks))
            end = walks[0][0][-1]
        else:
            options = edges_leaving(types[-1])
            conn, end = options[int(rng.integers(len(options)))]
        connectors.append(conn)
        types.append(end)
    return types, connectors


def random_specs(seed, count):
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        start = synth.ORACLE_SCHEMA["types"][int(rng.integers(len(synth.ORACLE_SCHEMA["types"])))]
        types, connectors = random_walk(rng, start, int(rng.integers(1, 4)), depth=2)
        specs.append(mg.MetagraphSpec(f"G{i}", tuple(types), tuple(connectors)))
    return specs


def count_edges(connectors):
    return sum(1 if isinstance(c, mg.EdgeRef) else sum(count_edges(b.connectors) for b in c.branches)
               for c in connectors)


def nesting(connectors):
    return max((1 + max(nesting(b.connectors) for b in c.branches) for c in connectors
                if isinstance(c, mg.Block)), default=0)


RANDOM_SPECS = random_specs(0, 60)
ORACLE_SPECS = [mg.parse_metagraph(text) for text in synth.ORACLE_METAGRAPHS]
GRAMMAR_SPECS = RANDOM_SPECS + ORACLE_SPECS + mg.bundled_metagraphs("yelp") + mg.bundled_metagraphs("amazon")


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestGrammarInvariants:
    """What the chain grammar guarantees, checked on random chains over the oracle schema,
    the oracle metagraphs and the bundled sets instead of at run time."""

    def test_generator_reaches_nested_blocks(self):
        assert {nesting(spec.connectors) for spec in RANDOM_SPECS} == {0, 1, 2}
        widths = {len(c.branches) for spec in RANDOM_SPECS for c in spec.connectors if isinstance(c, mg.Block)}
        assert widths == {2, 3}

    def test_instance_graph_is_single_source_single_sink_and_forward(self):
        for spec in GRAMMAR_SPECS:
            nodes, edges = mg._instance_graph(spec)
            assert all(a < b for a, b, _ in edges), spec
            has_in, has_out = {b for _, b, _ in edges}, {a for a, _, _ in edges}
            assert [k for k in range(len(nodes)) if k not in has_in] == [0], spec
            assert [k for k in range(len(nodes)) if k not in has_out] == [len(nodes) - 1], spec
            assert len(edges) == count_edges(spec.connectors), spec
            assert (nodes[0], nodes[-1]) == (spec.source_type, spec.sink_type)

    def test_random_plans_match_enumeration(self):
        # the oracle metagraphs and the bundled sets are checked so in TestOracleEquivalence and TestBundledSets
        for seed in range(3):
            store = synth.random_binary_hin(seed, max_entities=10, density_range=(0.15, 0.35))
            for spec in RANDOM_SPECS:
                want = mg.brute_force_matrix(spec, store)
                for optimize in (False, True):
                    got = mg.execute_plan(mg.compile_plan(spec, store, optimize=optimize), store)
                    assert np.array_equal(got.matrix.toarray(), want), (seed, spec, optimize)


class TestCompile:
    def test_m3_plan_is_w_wt_w(self):
        plan = mg.compile_plan(mg.parse_metagraph(M3_TEXT), two_by_two_store())
        loads = [s for s in plan.steps if isinstance(s, LoadStep)]
        muls = [s for s in plan.steps if isinstance(s, MatMulStep)]
        assert [(s.relation, s.transposed) for s in loads] == [
            ("rate", False), ("rate", True), ("rate", False)]
        assert len(muls) == 2 and not any(isinstance(s, HadamardStep) for s in plan.steps)
        assert plan.shape == (2, 2)

    def test_m9_plan_matches_the_four_step_structure(self):
        store = store_with(
            {"U": 3, "R": 4, "A": 2, "B": 3},
            {
                "write": ("U", "R", np.eye(3, 4)),
                "mention": ("R", "A", np.eye(4, 2)),
                "about": ("R", "B", np.eye(4, 3)),
                "rate": ("U", "B", np.eye(3)),
            },
        )
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store)
        steps = plan.steps
        hadamards = [(i, s) for i, s in enumerate(steps) if isinstance(s, HadamardStep)]
        assert len(hadamards) == 1
        h_idx, h = hadamards[0]
        # each Hadamard operand is a product of a load with its own transpose
        for branch_slot in (h.left, h.right):
            s = steps[branch_slot]
            assert isinstance(s, MatMulStep)
            left, right = steps[s.left], steps[s.right]
            assert isinstance(left, LoadStep) and isinstance(right, LoadStep)
            assert left.relation == right.relation and left.transposed != right.transposed
        # the remaining products chain W_UR, the block, W_UR^T and W_UB in order
        outer = [s for s in steps if isinstance(s, MatMulStep)]
        assert len(outer) == 5  # 2 branch products + 3 chain products
        chain = [s for i, s in enumerate(steps) if isinstance(s, MatMulStep) and i > h_idx]
        assert len(chain) == 3
        assert steps[chain[0].left] == LoadStep("write", False) and chain[0].right == h_idx
        assert steps[chain[1].right] == LoadStep("write", True)
        assert steps[chain[2].right] == LoadStep("rate", False)

    def test_unknown_relation(self):
        with pytest.raises(mg.PlanCompileError, match="unknown relation 'checkin'"):
            mg.compile_plan(mg.parse_metagraph("M: U -[checkin]- B"), two_by_two_store())

    def test_undeclared_entity_type(self):
        with pytest.raises(KeyError, match="undeclared entity type"):
            mg.compile_plan(mg.parse_metagraph("M: U -[rate]- Z"), two_by_two_store())

    def test_relation_that_cannot_connect_types(self):
        store = store_with(
            {"U": 2, "B": 2, "C": 2},
            {"rate": ("U", "B", np.eye(2)), "cat": ("B", "C", np.eye(2))},
        )
        with pytest.raises(mg.PlanCompileError, match="cannot connect"):
            mg.compile_plan(mg.parse_metagraph("M: U -[cat]- B"), store)

    def test_branch_that_cannot_reach_join_type(self):
        store = store_with(
            {"U": 2, "B": 2, "C": 3},
            {"rate": ("U", "B", np.eye(2)), "cat": ("B", "C", np.eye(2, 3))},
        )
        # branch 2 ends with cat (B->C), which cannot join back to U
        text = "M: U -( -[rate]- B -[rate~]- | -[rate]- B -[cat]- )- U -[rate]- B"
        with pytest.raises(mg.PlanCompileError, match="cannot"):
            mg.compile_plan(mg.parse_metagraph(text), store)

    def test_explicit_reverse_against_declaration(self):
        with pytest.raises(mg.PlanCompileError, match="reverse"):
            mg.compile_plan(mg.parse_metagraph("M: U -[rate~]- B"), two_by_two_store())

    def test_same_type_relation_warns_and_goes_forward(self):
        store = store_with(
            {"U": 3, "B": 2},
            {"friend": ("U", "U", [[0, 1, 0], [0, 0, 1], [0, 0, 0]]), "rate": ("U", "B", np.eye(3, 2))},
        )
        with pytest.warns(UserWarning, match="traversing forward"):
            plan = mg.compile_plan(mg.parse_metagraph("M: U -[friend]- U -[rate]- B"), store)
        assert plan.steps[0] == LoadStep("friend", False)

    def test_bundled_yelp_set_compiles_without_warnings(self, tmp_path):
        # friend is symmetric: both orientations give the same plan result, so nothing to warn about
        store, ratings, decl = hin.ingest(synth.write_review_dataset(str(tmp_path), seed=3))
        hin.attach_ratings(store, ratings, decl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in mg.bundled_metagraphs("yelp"):
                for optimize in (False, True):
                    mg.compile_plan(spec, store, optimize=optimize)
            m2 = next(s for s in mg.bundled_metagraphs("yelp") if s.name == "M2")
            mg.brute_force_count(m2, store, 0, 0)

    def test_compile_is_deterministic(self):
        spec = mg.parse_metagraph(M9_TEXT)
        store = synth.random_binary_hin(4)
        assert mg.compile_plan(spec, store) == mg.compile_plan(spec, store)

    def test_optimized_plan_same_result(self):
        store = synth.random_binary_hin(11)
        spec = mg.parse_metagraph("M: U -[rate]- B -[about~]- R -[write~]- U -[rate]- B")
        base = mg.execute_plan(mg.compile_plan(spec, store), store)
        opt = mg.execute_plan(mg.compile_plan(spec, store, optimize=True), store)
        assert (base.matrix != opt.matrix).nnz == 0


class TestExecute:
    def test_m3_worked_example(self):
        store = two_by_two_store()
        plan = mg.compile_plan(mg.parse_metagraph(M3_TEXT), store)
        sim = mg.execute_plan(plan, store)
        assert np.array_equal(np.asarray(sim.matrix.todense()), [[3, 2], [2, 1]])

    def test_zero_adjacency_annihilates(self):
        store = store_with({"U": 2, "B": 2}, {"rate": ("U", "B", np.zeros((2, 2)))})
        plan = mg.compile_plan(mg.parse_metagraph(M3_TEXT), store)
        assert mg.execute_plan(plan, store).nnz == 0

    def test_m9_inner_hadamard_slot(self):
        # one user pair, two reviews both on business b0, both mentioning aspect a0
        store = store_with(
            {"U": 2, "R": 2, "A": 1, "B": 1},
            {
                "write": ("U", "R", [[1, 0], [0, 1]]),
                "mention": ("R", "A", [[1], [1]]),
                "about": ("R", "B", [[1], [1]]),
                "rate": ("U", "B", [[1], [1]]),
            },
        )
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store)
        _, slots = mg.execute_plan(plan, store, keep_slots=True)
        h_idx = next(i for i, s in enumerate(plan.steps) if isinstance(s, HadamardStep))
        assert np.array_equal(np.asarray(slots[h_idx].todense()), [[1, 1], [1, 1]])

    def test_store_unchanged_by_bundled_yelp_plans(self, tmp_path):
        # slots are new matrices: scaling every slot in place leaves the store's arrays as they were
        store, ratings, decl = hin.ingest(synth.write_review_dataset(str(tmp_path), seed=3))
        hin.attach_ratings(store, ratings, decl)
        before = {name: [arr.copy() for arr in (adj.indptr, adj.indices, adj.data)]
                  for name, (_, adj) in store.relations.items()}
        for spec in mg.bundled_metagraphs("yelp"):
            for optimize in (False, True):
                plan = mg.compile_plan(spec, store, optimize=optimize)
                _, slots = mg.execute_plan(plan, store, keep_slots=True)
                for slot in slots:
                    slot.data *= 2.0
        for name, (_, adj) in store.relations.items():
            for want, got in zip(before[name], (adj.indptr, adj.indices, adj.data)):
                assert np.array_equal(want, got), name

    def test_nnz_budget_enforced(self):
        store = two_by_two_store()
        plan = mg.compile_plan(mg.parse_metagraph(M3_TEXT), store)
        with pytest.raises(mg.ResourceLimitError, match="budget"):
            mg.execute_plan(plan, store, nnz_budget=2)


def face_split_reference(mats, columns):
    """Dense •ᵢ Aᵢ (row r is the kron of the rows r) or, with ``columns``, ⊙ᵢ Aᵢ (the same by columns)."""
    out = None
    for mat in mats:
        dense = mat.toarray().T if columns else mat.toarray()
        out = dense if out is None else np.einsum("ri,rj->rij", out, dense).reshape(len(dense), -1)
    return sp.csr_matrix(out.T if columns else out)


def full_product_slots(plan, store):
    """Every slot of ``plan`` with each product formed in full, then Hadamard by ``multiply``."""
    slots = []
    for step in plan.steps:
        if isinstance(step, LoadStep):
            adj = store.adjacency(step.relation)
            mat = adj.T.tocsr() if step.transposed else adj.copy()
        elif isinstance(step, MatMulStep):
            mat = (slots[step.left] @ slots[step.right]).tocsr()
        elif isinstance(step, FaceSplitStep):
            mat = face_split_reference([slots[i] for i in step.operands], step.columns)
        else:
            mat = slots[step.left].multiply(slots[step.right]).tocsr()
        mat.eliminate_zeros()
        slots.append(mat)
    return slots


def weighted_store(seed, weights):
    """``synth.random_binary_hin`` with integer weights in 1..4 or fractional ones in (0.1, 2.1)."""
    store = synth.random_binary_hin(seed, max_entities=30, density_range=(0.08, 0.3))
    rng = np.random.default_rng(seed + 100)
    for _, adj in store.relations.values():
        if weights == "integer":
            adj.data = rng.integers(1, 5, adj.nnz).astype(float)
        else:
            adj.data = rng.uniform(0.1, 2.1, adj.nnz)
    return store


def assert_same_matrix(got, want, weights):
    got, want = got.copy(), want.copy()
    got.eliminate_zeros()
    want.eliminate_zeros()
    assert got.shape == want.shape and got.nnz == want.nnz
    assert ((got != 0) != (want != 0)).nnz == 0
    if weights == "integer":  # integer sums are exact in any order
        assert (got != want).nnz == 0
    else:  # a masked sum may add its terms in another order: float64 rounding only
        assert np.allclose(got.toarray(), want.toarray(), rtol=1e-12, atol=0.0)


THREE_BRANCH = (
    "T: U -[write]- R -( -[mention]- A -[mention~]- | -[about]- B -[about~]- "
    "| -[write~]- U -[write]- )- R -[about]- B"
)
SINGLE_EDGE_BRANCH = "S: U -( -[rate]- | -[write]- R -[about]- )- B -[about~]- R -[about]- B"


class TestMaskedExecution:
    """``execute_plan`` against every product formed in full (``full_product_slots``)."""

    def check(self, plan, store, weights):
        sim, slots = mg.execute_plan(plan, store, keep_slots=True)
        want = full_product_slots(plan, store)
        assert_same_matrix(sim.matrix, want[plan.result], weights)
        for index, step in enumerate(plan.steps):
            if not isinstance(step, HadamardStep):
                continue
            assert_same_matrix(slots[index], want[index], weights)
            # an operand is computed in full or, if deferred, only on the other operand's pattern
            for mask, masked in ((step.left, step.right), (step.right, step.left)):
                if slots[masked].nnz < want[masked].nnz:
                    assert_same_matrix(slots[mask], want[mask], weights)
                    assert_same_matrix(slots[masked], want[masked].multiply(want[mask] != 0).tocsr(), weights)
                else:
                    assert_same_matrix(slots[masked], want[masked], weights)

    @pytest.mark.parametrize("weights", ["integer", "fractional"])
    @pytest.mark.parametrize("text", [
        synth.ORACLE_METAGRAPHS[5], THREE_BRANCH, synth.ORACLE_METAGRAPHS[8], SINGLE_EDGE_BRANCH,
    ], ids=["M9", "three-branch", "nested", "single-edge-branch"])
    def test_blocks_match_full_products(self, text, weights):
        spec = mg.parse_metagraph(text)
        for seed in range(6):
            store = weighted_store(seed, weights)
            for optimize in (False, True):
                self.check(mg.compile_plan(spec, store, optimize=optimize), store, weights)

    @pytest.mark.parametrize("weights", ["integer", "fractional"])
    def test_product_with_a_second_reader_is_not_deferred(self, weights):
        # X = mention·mention~ feeds the Hadamard and a later product, so it is formed in full
        store = weighted_store(2, weights)
        r, a, b = (store.entity(t).count for t in ("R", "A", "B"))
        steps = (
            LoadStep("mention", False), LoadStep("mention", True), MatMulStep(0, 1),
            LoadStep("about", False), LoadStep("about", True), MatMulStep(3, 4),
            HadamardStep(2, 5), MatMulStep(6, 2),
        )
        shapes = ((r, a), (a, r), (r, r), (r, b), (b, r), (r, r), (r, r), (r, r))
        plan = mg.ExecutionPlan(steps, shapes, "shared")
        self.check(plan, store, weights)
        _, slots = mg.execute_plan(plan, store, keep_slots=True)
        want = full_product_slots(plan, store)
        assert (slots[2] != want[2]).nnz == 0 and slots[2].nnz == want[2].nnz

    @pytest.mark.parametrize("weights", ["integer", "fractional"])
    def test_empty_mask(self, weights):
        store = weighted_store(1, weights)
        decl, adj = store.relations["about"]
        store.relations["about"] = (decl, sp.csr_matrix(adj.shape))
        spec = mg.parse_metagraph(synth.ORACLE_METAGRAPHS[5])
        for optimize in (False, True):
            plan = mg.compile_plan(spec, store, optimize=optimize)
            self.check(plan, store, weights)
            assert mg.execute_plan(plan, store).nnz == 0


def sparse_mask_store(n_reviews=600, n_users=300, n_businesses=300):
    """M9's mention branch is every review pair (one aspect), its about branch 2 reviews per business."""
    reviews = np.arange(n_reviews)
    write = np.zeros((n_users, n_reviews))
    write[reviews % n_users, reviews] = 1
    about = np.zeros((n_reviews, n_businesses))
    about[reviews, reviews % n_businesses] = 1
    rate = np.random.default_rng(0).random((n_users, n_businesses)) < 0.05
    return store_with(
        {"U": n_users, "R": n_reviews, "A": 1, "B": n_businesses},
        {"write": ("U", "R", write), "mention": ("R", "A", np.ones((n_reviews, 1))),
         "about": ("R", "B", about), "rate": ("U", "B", rate)},
    )


def traced_peak(fn):
    """Peak bytes that ``fn`` allocates through Python and numpy; its exception, if any."""
    tracemalloc.start()
    try:
        fn()
        error = None
    except mg.ResourceLimitError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


def csr_bytes(nnz, rows):
    return nnz * (8 + 4) + (rows + 1) * 4


class TestExecutionMemory:
    def test_masked_branch_product_is_never_allocated(self):
        store = sparse_mask_store()
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store)
        want = full_product_slots(plan, store)
        h = next(s for s in plan.steps if isinstance(s, HadamardStep))
        full, mask = want[h.left], want[h.right]
        assert full.nnz >= 50 * mask.nnz
        peak, error = traced_peak(lambda: mg.execute_plan(plan, store, nnz_budget=full.nnz - 1))
        assert error is None and peak < csr_bytes(full.nnz, full.shape[0])
        assert (mg.execute_plan(plan, store).matrix != want[plan.result]).nnz == 0

    def test_budget_trips_before_the_product_is_allocated(self):
        n = 2000  # mention·mention~ would hold n * n nonzeros
        store = store_with({"R": n, "A": 1}, {"mention": ("R", "A", np.ones((n, 1)))})
        plan = mg.compile_plan(mg.parse_metagraph("M: R -[mention]- A -[mention~]- R"), store)
        peak, error = traced_peak(lambda: mg.execute_plan(plan, store, nnz_budget=10 * n))
        assert isinstance(error, mg.ResourceLimitError) and "budget" in str(error)
        assert peak < n * n * 8  # below the product's data array alone


def plan_cost(spec, store, optimize):
    return sum(mg.compile_plan(spec, store, optimize=optimize).costs)


class TestCostPlanner:
    """``compile_plan(optimize=True)``: each chain associated by estimated scalar multiplications."""

    @pytest.mark.parametrize("text,left,right", [
        ("M: U -[write]- R -[about]- B", ("write", False), ("about", False)),
        ("M: U -[rate]- B -[about~]- R", ("rate", False), ("about", True)),
    ])
    def test_two_load_cost_is_the_guards_count(self, text, left, right):
        for seed in range(6):
            store = synth.random_binary_hin(seed)
            plan = mg.compile_plan(mg.parse_metagraph(text), store, optimize=True)
            a, b = (store.adjacency(rel).T.tocsr() if t else store.adjacency(rel) for rel, t in (left, right))
            count = int(np.asarray((a != 0).sum(axis=0)).ravel() @ np.asarray((b != 0).sum(axis=1)).ravel())
            assert plan.costs == (0.0, 0.0, count)
            m, n = plan.shape
            assert min(plan.costs[-1], m * n) == mg._product_nnz_bound(a, b)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_never_costlier_than_left_to_right(self):
        cheaper = 0
        for seed in range(8):
            store = synth.random_binary_hin(seed)
            for text in synth.ORACLE_METAGRAPHS:
                spec = mg.parse_metagraph(text)
                best, ltr = plan_cost(spec, store, True), plan_cost(spec, store, False)
                assert best <= ltr, (seed, spec.name)
                cheaper += best < ltr
        assert cheaper > 0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_compile_twice_gives_the_same_plan(self):
        for seed in range(6):
            store = synth.random_binary_hin(seed)
            for text in synth.ORACLE_METAGRAPHS:
                spec = mg.parse_metagraph(text)
                assert mg.compile_plan(spec, store, optimize=True) == mg.compile_plan(spec, store, optimize=True)

    def test_equal_costs_keep_the_left_to_right_association(self):
        # every product of a chain of identity matrices costs the same
        store = store_with({"U": 3, "B": 3}, {"rate": ("U", "B", np.eye(3))})
        spec = mg.parse_metagraph("M: U -[rate]- B -[rate~]- U -[rate]- B -[rate~]- U")
        assert mg.compile_plan(spec, store, optimize=True).steps == mg.compile_plan(spec, store).steps

    def test_hadamard_takes_the_sketch_of_its_mask(self):
        # the about branch masks the 600 x 600 mention branch; write has one entry per review, so
        # write·H costs exactly the mask's row counts, which sum to its nnz
        store = sparse_mask_store()
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store)
        h_idx = next(i for i, s in enumerate(plan.steps) if isinstance(s, HadamardStep))
        after = next(i for i, s in enumerate(plan.steps) if isinstance(s, MatMulStep) and s.right == h_idx)
        about = store.adjacency("about")
        assert plan.costs[after] == (about @ about.T).nnz < plan.shapes[h_idx][0] ** 2

    def test_m8_forms_no_slot_above_its_result(self, tmp_path):
        store, ratings, decl = hin.ingest(synth.write_review_dataset(str(tmp_path), seed=3))
        hin.attach_ratings(store, ratings, decl)
        m8 = next(s for s in mg.bundled_metagraphs("yelp") if s.name == "M8")
        users, reviews = store.entity("U").count, store.entity("R").count
        ltr = mg.compile_plan(m8, store)
        ltr_sim, ltr_slots = mg.execute_plan(ltr, store, keep_slots=True)
        assert any(shape == (users, reviews) and slot.nnz > ltr_sim.nnz
                   for step, shape, slot in zip(ltr.steps, ltr.shapes, ltr_slots)
                   if isinstance(step, MatMulStep))
        sim, slots = mg.execute_plan(mg.compile_plan(m8, store, optimize=True), store, keep_slots=True)
        assert max(slot.nnz for slot in slots) <= sim.nnz
        assert (sim.matrix != ltr_sim.matrix).nnz == 0


def face_split_store(n_reviews, n_aspects, n_businesses, density, seed=0):
    """M9's schema, one writer per review among 10 users; mention and about drawn at ``density``."""
    rng = np.random.default_rng(seed)
    reviews = np.arange(n_reviews)
    write = np.zeros((10, n_reviews))
    write[reviews % 10, reviews] = 1
    return store_with(
        {"U": 10, "R": n_reviews, "A": n_aspects, "B": n_businesses},
        {"write": ("U", "R", write),
         "mention": ("R", "A", rng.random((n_reviews, n_aspects)) < density),
         "about": ("R", "B", rng.random((n_reviews, n_businesses)) < density),
         "rate": ("U", "B", rng.random((10, n_businesses)) < 0.5)},
    )


class TestFaceSplit:
    """Blocks spliced into their chain as (•ᵢ Lᵢ)(⊙ᵢ Rᵢ) under ``compile_plan(optimize=True)``."""

    @pytest.mark.parametrize("weights", ["integer", "fractional"])
    @pytest.mark.parametrize("columns", [False, True], ids=["face-split", "khatri-rao"])
    @pytest.mark.parametrize("widths", [(3, 4), (3, 4, 2)], ids=["two", "three"])
    def test_kernel_matches_einsum(self, weights, columns, widths):
        rng = np.random.default_rng(len(widths))
        relations, shapes = {}, []
        for k, width in enumerate(widths):
            if weights == "integer":
                values = rng.integers(1, 5, (6, width))
            else:
                values = rng.uniform(0.1, 2.1, (6, width))
            dense = (rng.random((6, width)) < 0.6) * values
            dense[k] = 0  # each operand has its own empty row; row 5 is empty in all
            dense[5] = 0
            relations[f"r{k}"] = (f"Y{k}", "X", dense.T) if columns else ("X", f"Y{k}", dense)
            shapes.append((width, 6) if columns else (6, width))
        store = store_with({"X": 6, **{f"Y{k}": w for k, w in enumerate(widths)}}, relations)
        width = int(np.prod(widths))
        steps = (*(LoadStep(f"r{k}", False) for k in range(len(widths))),
                 FaceSplitStep(tuple(range(len(widths))), columns))
        plan = mg.ExecutionPlan(steps, (*shapes, (width, 6) if columns else (6, width)), "F")
        got = mg.execute_plan(plan, store).matrix
        want = face_split_reference([store.adjacency(f"r{k}") for k in range(len(widths))], columns)
        assert got.shape == want.shape and 0 < want.nnz < want.shape[0] * want.shape[1]
        assert_same_matrix(got, want, weights)

    def test_m9_splices_its_block(self, tmp_path):
        store, ratings, decl = hin.ingest(synth.write_review_dataset(str(tmp_path), seed=3))
        hin.attach_ratings(store, ratings, decl)
        m9 = next(s for s in mg.bundled_metagraphs("yelp") if s.name == "M9")
        plan = mg.compile_plan(m9, store, optimize=True)
        assert sorted(s.columns for s in plan.steps if isinstance(s, FaceSplitStep)) == [False, True]
        assert not any(isinstance(s, HadamardStep) for s in plan.steps)
        sim, slots = mg.execute_plan(plan, store, keep_slots=True)
        users, reviews = store.entity("U").count, store.entity("R").count
        formed = {shape for step, shape in zip(plan.steps, plan.shapes) if not isinstance(step, LoadStep)}
        assert not formed & {(reviews, reviews), (users, reviews)}
        assert len(slots) == len(plan.steps)
        paper = mg.execute_plan(mg.compile_plan(m9, store), store)
        assert sim.nnz == paper.nnz and (sim.matrix != paper.matrix).nnz == 0

    def test_budget_trips_before_the_face_split_is_allocated(self):
        # each review mentions all 40 aspects and is about all 40 businesses: •ᵢ Lᵢ holds 300 * 40 * 40
        store = face_split_store(300, 40, 40, density=1.0)
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store, optimize=True)
        index = next(i for i, s in enumerate(plan.steps) if isinstance(s, FaceSplitStep) and not s.columns)
        nnz = 300 * 40 * 40
        assert plan.shapes[index] == (300, 1600) and plan.costs[index] == nnz
        peak, error = traced_peak(lambda: mg.execute_plan(plan, store, nnz_budget=20000))
        assert isinstance(error, mg.ResourceLimitError) and "(300, 1600)" in str(error)
        assert peak < nnz * 8  # below the face-split's data array alone

    def test_costlier_splice_keeps_the_hadamard(self):
        # reviews mention about 9 of 10 aspects and are about 9 of 10 businesses: each factor holds
        # about 10 * 81 entries, and the spliced plan costs more than the Hadamard one
        store = face_split_store(10, 10, 10, density=0.9)
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store, optimize=True)
        assert any(isinstance(s, HadamardStep) for s in plan.steps)
        assert not any(isinstance(s, FaceSplitStep) for s in plan.steps)

    def test_cut_wider_than_its_operands_keeps_the_hadamard(self):
        # one aspect of 2 and one business of 4000 per review: splicing would cost far less than the
        # 2 * 200² terms of mention·mention~, but its width 2 * 4000 exceeds the 1600 stored entries
        n = 400
        reviews = np.arange(n)

        def one_per_column(rows, cols, shape):
            return sp.csr_matrix((np.ones(n), (rows, cols)), shape=shape)

        store = store_with(
            {"U": 10, "R": n, "A": 2, "B": 4000},
            {"write": ("U", "R", one_per_column(reviews % 10, reviews, (10, n))),
             "mention": ("R", "A", one_per_column(reviews, reviews % 2, (n, 2))),
             "about": ("R", "B", one_per_column(reviews, reviews, (n, 4000))),
             "rate": ("U", "B", one_per_column(reviews % 10, reviews, (10, 4000)))},
        )
        plan = mg.compile_plan(mg.parse_metagraph(M9_TEXT), store, optimize=True)
        assert any(isinstance(s, HadamardStep) for s in plan.steps)
        assert not any(isinstance(s, FaceSplitStep) for s in plan.steps)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_default_plans_match_enumeration(self):
        spliced = 0
        for seed in range(12):
            store = synth.random_binary_hin(seed, max_entities=15, density_range=(0.1, 0.3))
            for text in synth.ORACLE_METAGRAPHS[5:9]:  # P6-P9, the metagraphs with blocks
                spec = mg.parse_metagraph(text)
                plan = mg.compile_plan(spec, store, optimize=True)
                sim, slots = mg.execute_plan(plan, store, keep_slots=True)
                got = np.asarray(sim.matrix.todense()).astype(np.int64)
                assert np.array_equal(got, mg.brute_force_matrix(spec, store)), (seed, spec.name)
                want = full_product_slots(plan, store)
                for index, step in enumerate(plan.steps):
                    if isinstance(step, FaceSplitStep):
                        assert_same_matrix(slots[index], want[index], "integer")
                spliced += any(isinstance(s, FaceSplitStep) for s in plan.steps)
        assert spliced >= 10  # 14 of these 48 plans splice a block


class TestBruteForce:
    def test_m3_pair_count(self):
        spec = mg.parse_metagraph(M3_TEXT)
        assert mg.brute_force_count(spec, two_by_two_store(), 0, 0) == 3

    def test_empty_hin_counts_zero(self):
        store = store_with({"U": 2, "B": 2}, {"rate": ("U", "B", np.zeros((2, 2)))})
        spec = mg.parse_metagraph(M3_TEXT)
        assert mg.brute_force_count(spec, store, 0, 0) == 0

    def test_single_edge_instance(self):
        spec = mg.parse_metagraph("M: U -[rate]- B")
        assert mg.brute_force_count(spec, two_by_two_store(), 0, 1) == 1
        assert mg.brute_force_count(spec, two_by_two_store(), 1, 1) == 0

    def test_guard_trips(self):
        store = store_with({"U": 30, "B": 30}, {"rate": ("U", "B", np.ones((30, 30)))})
        spec = mg.parse_metagraph(M3_TEXT)
        with pytest.raises(mg.ResourceLimitError, match="partial assignments"):
            mg.brute_force_count(spec, store, 0, 0, guard=100)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestOracleEquivalence:
    def test_plans_match_enumeration(self):
        for seed in range(12):
            store = synth.random_binary_hin(seed, max_entities=25)
            for text in synth.ORACLE_METAGRAPHS:
                spec = mg.parse_metagraph(text)
                for optimize in (False, True):
                    plan = mg.compile_plan(spec, store, optimize=optimize)
                    got = np.asarray(mg.execute_plan(plan, store).matrix.todense()).astype(np.int64)
                    want = mg.brute_force_matrix(spec, store)
                    assert np.array_equal(got, want), (seed, spec.name, optimize)

    def test_count_matches_matrix_entry(self):
        store = synth.random_binary_hin(3, max_entities=15)
        spec = mg.parse_metagraph(synth.ORACLE_METAGRAPHS[5])
        counts = mg.brute_force_matrix(spec, store)
        for u in range(min(3, counts.shape[0])):
            for b in range(min(3, counts.shape[1])):
                assert mg.brute_force_count(spec, store, u, b) == counts[u, b]


YELP_SCHEMA = {
    "types": {"U": 10, "R": 14, "A": 3, "B": 8, "Ca": 3, "Ci": 2, "St": 2, "Sr": 3},
    "relations": [
        ("rate", "U", "B"), ("write", "U", "R"), ("friend", "U", "U"),
        ("about", "R", "B"), ("mention", "R", "A"), ("hascat", "B", "Ca"),
        ("incity", "B", "Ci"), ("instate", "B", "St"), ("hasstar", "B", "Sr"),
    ],
}
AMAZON_SCHEMA = {
    "types": {"U": 10, "R": 14, "A": 3, "B": 8, "Ca": 3, "Br": 4},
    "relations": [
        ("rate", "U", "B"), ("write", "U", "R"), ("about", "R", "B"),
        ("mention", "R", "A"), ("hascat", "B", "Ca"), ("hasbrand", "B", "Br"),
    ],
}


def random_schema_store(schema, seed, density=0.25):
    rng = np.random.default_rng(seed)
    counts = schema["types"]
    relations = {
        name: (head, tail, rng.random((counts[head], counts[tail])) < density)
        for name, head, tail in schema["relations"]
    }
    return store_with(counts, relations)


class TestBundledSets:
    def test_yelp_set_parses(self):
        specs = mg.bundled_metagraphs("yelp")
        assert [s.name for s in specs] == [f"M{i}" for i in range(1, 10)]
        assert all(s.source_type == "U" and s.sink_type == "B" for s in specs)
        # M9 carries the parallel block
        assert any(isinstance(c, mg.Block) for c in specs[8].connectors)

    def test_amazon_set_parses(self):
        specs = mg.bundled_metagraphs("amazon")
        assert [s.name for s in specs] == [f"M{i}" for i in range(1, 7)]
        assert any(isinstance(c, mg.Block) for c in specs[5].connectors)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("dataset,schema", [("yelp", YELP_SCHEMA), ("amazon", AMAZON_SCHEMA)])
    def test_sets_execute_against_their_schema(self, dataset, schema):
        for seed in range(3):
            store = random_schema_store(schema, seed)
            for spec in mg.bundled_metagraphs(dataset):
                plan = mg.compile_plan(spec, store)
                counts = np.asarray(mg.execute_plan(plan, store).matrix.todense()).astype(np.int64)
                assert counts.shape == (schema["types"]["U"], schema["types"]["B"])
                assert np.array_equal(counts, mg.brute_force_matrix(spec, store)), (dataset, spec.name)

    def test_unknown_set_lists_available(self):
        with pytest.raises(ValueError, match="amazon"):
            mg.bundled_metagraphs("movielens")


class TestPersistence:
    def test_similarity_roundtrip(self, tmp_path):
        store = synth.random_binary_hin(6)
        spec = mg.parse_metagraph(synth.ORACLE_METAGRAPHS[4])
        sim = mg.execute_plan(mg.compile_plan(spec, store), store)
        path = tmp_path / "sim.bin"  # no .npz suffix: the file must land at exactly this path
        mg.save_similarity(path, sim)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.bin"]
        first = path.read_bytes()
        mg.save_similarity(path, sim)
        assert path.read_bytes() == first  # rewrites are byte-identical
        again = mg.load_similarity(path)
        assert again.metagraph == sim.metagraph
        assert again.shape == sim.shape
        assert (again.matrix != sim.matrix).nnz == 0

    def test_similarity_file_record_reads_no_entries(self, tmp_path, monkeypatch):
        store = synth.random_binary_hin(6)
        sim = mg.execute_plan(mg.compile_plan(mg.parse_metagraph(synth.ORACLE_METAGRAPHS[4]), store), store)
        path = tmp_path / "sim.npz"
        written = mg.save_similarity(path, sim)
        assert written == mg.SimilarityFile(str(path), sim.metagraph, sim.shape, sim.nnz)
        members = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording(npz, key):
            members.append(key)
            return getitem(npz, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
        assert mg.SimilarityFile.read(path) == written
        assert sorted(members) == ["indptr", "metagraph", "shape"]
        assert (written.matrix != sim.matrix).nnz == 0 and "data" in members  # read on access
        assert "matrix" not in vars(written)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        store = synth.random_binary_hin(6)
        sim = mg.execute_plan(mg.compile_plan(mg.parse_metagraph(synth.ORACLE_METAGRAPHS[4]), store), store)
        path = tmp_path / "sim.npz"
        seen = []

        def broken(fh, **arrays):
            fh.write(b"PK\x03\x04")
            fh.flush()
            seen.append(path.exists())  # a process killed here leaves the path as it is now
            raise OSError("planted write failure")

        monkeypatch.setattr(np, "savez", broken)
        with pytest.raises(OSError, match="planted"):
            mg.save_similarity(path, sim)
        assert seen == [False] and list(tmp_path.iterdir()) == []
