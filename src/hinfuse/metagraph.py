"""Metagraph DSL, plan compilation and sparse execution.

A metagraph is a single-source single-sink DAG over entity types.  The
textual form is a chain of entity types joined by connectors::

    M3: U -[rate]- B -[rate~]- U -[rate]- B
    M9: U -[write]- R -( -[mention]- A -[mention~]- | -[about]- B -[about~]- )- R -[write~]- U -[rate]- B

A connector is either an edge ``-[rel]-`` (``~`` marks traversal against
the relation's declared direction) or a parallel block ``-( ... | ... )-``
whose branches each start and end with a connector.  A block constrains the
surrounding nodes through *every* branch simultaneously: its matrix
semantics is the Hadamard product of the branch products, while plain
chains multiply adjacency matrices left to right.  Entry (u, b) of the
executed plan counts the instances of the metagraph connecting source
entity u to sink entity b.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class MetagraphSyntaxError(ValueError):
    """DSL text that does not parse; carries the offending position."""

    def __init__(self, message, position=None):
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class MetagraphValidationError(ValueError):
    """A structurally invalid metagraph (cycle, multiple sources/sinks, ...)."""


class PlanCompileError(ValueError):
    """A metagraph that cannot be compiled against the given store."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size budget."""


# ---------------------------------------------------------------------------
# AST + parsing


@dataclass(frozen=True)
class EdgeRef:
    relation: str
    reverse: bool = False


@dataclass(frozen=True)
class Block:
    branches: tuple  # of Branch


@dataclass(frozen=True)
class Branch:
    connectors: tuple  # EdgeRef | Block, length == len(inner_types) + 1
    inner_types: tuple


@dataclass(frozen=True)
class Chain:
    types: tuple  # entity type names, length == len(connectors) + 1
    connectors: tuple  # EdgeRef | Block


@dataclass(frozen=True)
class MetagraphSpec:
    """Validated single-source single-sink DAG plus its surface chain."""

    name: str
    nodes: tuple  # (node id, entity type)
    edges: tuple  # (from node, to node, relation name, reverse flag)
    source: str
    sink: str
    chain: Chain = field(compare=False, repr=False, default=None)

    @property
    def source_type(self):
        return dict(self.nodes)[self.source]

    @property
    def sink_type(self):
        return dict(self.nodes)[self.sink]


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<edge>-\[\s*(?P<rel>[A-Za-z_]\w*)\s*(?P<rev>~?)\s*\]-)
      | (?P<bopen>-\()
      | (?P<bclose>\)-)
      | (?P<pipe>\|)
      | (?P<colon>:)
      | (?P<ident>[A-Za-z_]\w*)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise MetagraphSyntaxError(f"unrecognized input {text[pos:pos + 10]!r}", pos)
        if m.lastgroup != "ws":
            if m.lastgroup == "edge":
                tokens.append(("edge", EdgeRef(m.group("rel"), m.group("rev") == "~"), pos))
            else:
                tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", None, None)

    def next(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise MetagraphSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        self.i += 1
        return tok

    def parse_metagraph(self):
        name = self.next("ident")[1]
        self.next("colon")
        chain = self.parse_chain()
        if self.peek()[0] != "eof":
            tok = self.peek()
            raise MetagraphSyntaxError(f"unexpected trailing {tok[0]}", tok[2])
        if not chain.connectors:
            raise MetagraphSyntaxError("metagraph must contain at least one edge")
        return name, chain

    def parse_chain(self):
        types = [self.next("ident")[1]]
        connectors = []
        while self.peek()[0] in ("edge", "bopen"):
            connectors.append(self.parse_connector())
            types.append(self.next("ident")[1])
        return Chain(tuple(types), tuple(connectors))

    def parse_connector(self):
        kind, value, pos = self.next()
        if kind == "edge":
            return value
        if kind == "bopen":
            branches = [self.parse_branch()]
            while self.peek()[0] == "pipe":
                self.next()
                branches.append(self.parse_branch())
            self.next("bclose")
            if len(branches) < 2:
                raise MetagraphSyntaxError("parallel block needs at least two branches", pos)
            return Block(tuple(branches))
        raise MetagraphSyntaxError(f"expected an edge or parallel block, found {kind}", pos)

    def parse_branch(self):
        start = self.peek()
        if start[0] not in ("edge", "bopen"):
            raise MetagraphSyntaxError(
                "branch must start with an edge reaching out of the block's opening node", start[2]
            )
        connectors = [self.parse_connector()]
        inner_types = []
        while self.peek()[0] == "ident":
            inner_types.append(self.next()[1])
            nxt = self.peek()
            if nxt[0] not in ("edge", "bopen"):
                raise MetagraphSyntaxError(
                    "branch must end with an edge joining the block's closing node", nxt[2]
                )
            connectors.append(self.parse_connector())
        return Branch(tuple(connectors), tuple(inner_types))


def _build_dag(name, chain):
    nodes = []
    edges = []
    counter = [0]

    def new_node(type_name):
        node_id = f"n{counter[0]}"
        counter[0] += 1
        nodes.append((node_id, type_name))
        return node_id

    def add_connector(conn, a, b):
        if isinstance(conn, EdgeRef):
            edges.append((a, b, conn.relation, conn.reverse))
        else:
            for branch in conn.branches:
                prev = a
                for inner_conn, type_name in zip(branch.connectors[:-1], branch.inner_types):
                    node = new_node(type_name)
                    add_connector(inner_conn, prev, node)
                    prev = node
                add_connector(branch.connectors[-1], prev, b)

    prev = new_node(chain.types[0])
    source = prev
    for conn, type_name in zip(chain.connectors, chain.types[1:]):
        node = new_node(type_name)
        add_connector(conn, prev, node)
        prev = node
    spec = MetagraphSpec(name, tuple(nodes), tuple(edges), source, prev, chain)
    validate_spec(spec)
    return spec


def parse_metagraph(text):
    """Parse one metagraph definition into a validated :class:`MetagraphSpec`."""
    name, chain = _Parser(_tokenize(text)).parse_metagraph()
    return _build_dag(name, chain)


def parse_metagraphs(text):
    """Parse a DSL file: one metagraph per stanza, ``#`` starts a comment line."""
    stanzas = []
    current = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if current:
                stanzas.append(" ".join(current))
                current = []
        else:
            current.append(stripped)
    if current:
        stanzas.append(" ".join(current))
    specs = [parse_metagraph(stanza) for stanza in stanzas]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise MetagraphValidationError(f"duplicate metagraph names in file: {names}")
    return specs


def load_metagraph_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_metagraphs(fh.read())


def bundled_metagraphs(dataset):
    """Parsed metagraph sets shipped with the package ('yelp' or 'amazon')."""
    from importlib import resources

    name = f"{dataset}_metagraphs.txt"
    candidates = resources.files("hinfuse.data")
    try:
        text = (candidates / name).read_text(encoding="utf-8")
    except FileNotFoundError:
        available = sorted(p.name for p in candidates.iterdir() if p.name.endswith(".txt"))
        raise ValueError(f"no bundled metagraph set {dataset!r}; available: {available}") from None
    return parse_metagraphs(text)


def format_metagraph(spec):
    """Render a spec back to DSL text; re-parsing yields an equal spec."""

    def fmt_connector(conn):
        if isinstance(conn, EdgeRef):
            return f"-[{conn.relation}{'~' if conn.reverse else ''}]-"
        branches = " | ".join(fmt_branch(b) for b in conn.branches)
        return f"-( {branches} )-"

    def fmt_branch(branch):
        parts = [fmt_connector(branch.connectors[0])]
        for type_name, conn in zip(branch.inner_types, branch.connectors[1:]):
            parts.append(type_name)
            parts.append(fmt_connector(conn))
        return " ".join(parts)

    if spec.chain is None:
        raise ValueError("spec has no surface chain to format (hand-built?)")
    parts = [spec.chain.types[0]]
    for conn, type_name in zip(spec.chain.connectors, spec.chain.types[1:]):
        parts.append(fmt_connector(conn))
        parts.append(type_name)
    return f"{spec.name}: " + " ".join(parts)


def validate_spec(spec):
    """Check the DAG invariants: acyclic, exactly one source and one sink."""
    ids = [n for n, _ in spec.nodes]
    if len(set(ids)) != len(ids):
        raise MetagraphValidationError("duplicate node ids")
    heads = {a for a, _, _, _ in spec.edges}
    tails = {b for _, b, _, _ in spec.edges}
    sources = [n for n in ids if n not in tails]
    sinks = [n for n in ids if n not in heads]
    if sources != [spec.source] or len(sources) != 1:
        raise MetagraphValidationError(f"expected single source {spec.source!r}, found {sources}")
    if sinks != [spec.sink] or len(sinks) != 1:
        raise MetagraphValidationError(f"expected single sink {spec.sink!r}, found {sinks}")
    if len(_topological_order(spec)) != len(ids):  # Kahn's algorithm leaves a cycle's nodes out
        raise MetagraphValidationError("cycle detected")


# ---------------------------------------------------------------------------
# Plan compilation


@dataclass(frozen=True)
class LoadStep:
    relation: str
    transposed: bool


@dataclass(frozen=True)
class MatMulStep:
    left: int
    right: int


@dataclass(frozen=True)
class HadamardStep:
    left: int
    right: int


@dataclass(frozen=True)
class ExecutionPlan:
    steps: tuple
    shapes: tuple  # result shape per step
    metagraph: str

    @property
    def result(self):
        return len(self.steps) - 1

    @property
    def shape(self):
        return self.shapes[-1]


@dataclass
class SimilarityMatrix:
    """Sparse nonnegative user-item similarity; entries count metagraph instances."""

    matrix: sp.csr_matrix
    metagraph: str

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nnz(self):
        return self.matrix.nnz


def resolve_orientation(decl, adj, src_type, dst_type, reverse):
    """Decide whether traversing ``decl`` (adjacency ``adj``) from ``src_type`` to ``dst_type``
    transposes it.

    Between distinct types the orientation that type-checks is unique.  For
    same-type relations both orientations type-check: ``~`` selects reverse,
    otherwise forward is used.  A warning is emitted only when ``adj`` differs
    from its transpose, the one case where the two orientations disagree.
    """
    forward_ok = (src_type, dst_type) == (decl.head_type, decl.tail_type)
    reverse_ok = (src_type, dst_type) == (decl.tail_type, decl.head_type)
    if reverse:
        if not reverse_ok:
            raise PlanCompileError(
                f"relation {decl.name!r} ({decl.head_type}->{decl.tail_type}) cannot be "
                f"traversed in reverse from {src_type} to {dst_type}"
            )
        return True
    if forward_ok and reverse_ok:
        if (adj != adj.T).nnz == 0:
            return False
        warnings.warn(
            f"relation {decl.name!r} connects {src_type} to itself; traversing forward "
            "(mark the edge with '~' to traverse in reverse)",
            stacklevel=3,
        )
        return False
    if forward_ok:
        return False
    if reverse_ok:
        return True
    raise PlanCompileError(
        f"relation {decl.name!r} ({decl.head_type}->{decl.tail_type}) cannot connect "
        f"{src_type} to {dst_type}"
    )


def _chain_order(shapes):
    """Matrix-chain DP: returns the split tree minimizing scalar multiply count."""
    n = len(shapes)
    dims = [shapes[0][0]] + [s[1] for s in shapes]
    cost = [[0.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            best = None
            for k in range(i, j):
                c = cost[i][k] + cost[k + 1][j] + dims[i] * dims[k + 1] * dims[j + 1]
                if best is None or c < best:
                    best = c
                    split[i][j] = k
            cost[i][j] = best
    return split


class _PlanBuilder:
    def __init__(self, hin, optimize):
        self.hin = hin
        self.optimize = optimize
        self.steps = []
        self.shapes = []

    def emit(self, step, shape):
        self.steps.append(step)
        self.shapes.append(shape)
        return len(self.steps) - 1

    def count(self, type_name):
        return self.hin.entity(type_name).count

    def load(self, edge, src_type, dst_type):
        if edge.relation not in self.hin.relations:
            raise PlanCompileError(f"unknown relation {edge.relation!r}")
        decl, adj = self.hin.relations[edge.relation]
        declared = (self.count(decl.head_type), self.count(decl.tail_type))
        if adj.shape != declared:
            raise PlanCompileError(
                f"adjacency for {edge.relation!r} has shape {adj.shape}, "
                f"expected {declared}; was the store re-shaped after ingestion?"
            )
        transposed = resolve_orientation(decl, adj, src_type, dst_type, edge.reverse)
        shape = (declared[1], declared[0]) if transposed else declared
        return self.emit(LoadStep(edge.relation, transposed), shape)

    def connector(self, conn, src_type, dst_type):
        if isinstance(conn, EdgeRef):
            return self.load(conn, src_type, dst_type)
        want = (self.count(src_type), self.count(dst_type))
        slots = []
        for branch in conn.branches:
            slot = self.branch(branch, src_type, dst_type)
            if self.shapes[slot] != want:
                raise PlanCompileError(
                    f"branch endpoint mismatch: block joins {src_type} to {dst_type} "
                    f"{want} but a branch produced {self.shapes[slot]}"
                )
            slots.append(slot)
        out = slots[0]
        for slot in slots[1:]:
            out = self.emit(HadamardStep(out, slot), want)
        return out

    def branch(self, branch, src_type, dst_type):
        types = [src_type, *branch.inner_types, dst_type]
        slots = [
            self.connector(conn, types[i], types[i + 1]) for i, conn in enumerate(branch.connectors)
        ]
        return self.product(slots)

    def product(self, slots):
        if len(slots) == 1:
            return slots[0]
        for left, right in zip(slots, slots[1:]):
            if self.shapes[left][1] != self.shapes[right][0]:
                raise PlanCompileError(
                    f"cannot multiply {self.shapes[left]} by {self.shapes[right]}"
                )
        if not self.optimize:
            out = slots[0]
            for slot in slots[1:]:
                shape = (self.shapes[out][0], self.shapes[slot][1])
                out = self.emit(MatMulStep(out, slot), shape)
            return out
        split = _chain_order([self.shapes[s] for s in slots])

        def assemble(i, j):
            if i == j:
                return slots[i]
            k = split[i][j]
            left = assemble(i, k)
            right = assemble(k + 1, j)
            shape = (self.shapes[left][0], self.shapes[right][1])
            return self.emit(MatMulStep(left, right), shape)

        return assemble(0, len(slots) - 1)


def compile_plan(spec, hin, optimize=False):
    """Compile a metagraph into loads, sparse products and Hadamard products.

    Chains associate left to right; ``optimize=True`` reassociates pure
    products by dimension (matrix-chain DP) to shrink intermediates.
    """
    if spec.chain is None:
        raise PlanCompileError("spec carries no surface chain; compile from parsed specs")
    for type_name in spec.chain.types:
        hin.entity(type_name)  # raises KeyError on undeclared types
    builder = _PlanBuilder(hin, optimize)
    chain = spec.chain
    slots = [
        builder.connector(conn, chain.types[i], chain.types[i + 1])
        for i, conn in enumerate(chain.connectors)
    ]
    builder.product(slots)
    return ExecutionPlan(tuple(builder.steps), tuple(builder.shapes), spec.name)


_COUNT_CHUNK = 2**20  # stored entries counted per np.bincount call


def _column_counts(matrix):
    """Stored entries per column, counted in chunks: ``np.bincount`` copies its input to int64."""
    counts = np.zeros(matrix.shape[1], dtype=np.int64)
    for start in range(0, matrix.nnz, _COUNT_CHUNK):
        counts += np.bincount(matrix.indices[start:start + _COUNT_CHUNK], minlength=matrix.shape[1])
    return counts


def _product_nnz_bound(left, right):
    """Upper bound on the stored nonzeros of ``left @ right``, without forming it.

    Σ_k nnz(left[:, k]) · nnz(right[k, :]) counts the scalar products the
    multiplication makes; it is capped at the result's m·n.
    """
    return min(int(_column_counts(left) @ np.diff(right.indptr)), left.shape[0] * right.shape[1])


def _values_at(matrix, rows, cols):
    """``matrix[rows, cols]`` as a flat array, zero where nothing is stored.

    Binary search for each position in the matrix's row-major keys.
    """
    matrix = matrix if matrix.has_sorted_indices else matrix.sorted_indices()
    n = matrix.shape[1]
    keys = np.empty(matrix.nnz + 1, dtype=np.int64)
    keys[:-1] = np.repeat(np.arange(matrix.shape[0], dtype=np.int64) * n, np.diff(matrix.indptr))
    keys[:-1] += matrix.indices
    keys[-1] = matrix.shape[0] * n  # above every position, so each search lands on a valid index
    data = np.append(matrix.data, 0.0)
    query = rows.astype(np.int64) * n + cols
    at = np.searchsorted(keys, query)
    values = data[at]
    values[keys[at] != query] = 0.0
    return values


def _masked_product(left, right, rows, cols):
    """``(left @ right)[rows, cols]`` as a flat array, computed only at those positions.

    Each position (i, j) is repeated over the stored k of ``left``'s row i,
    ``right[k, j]`` is looked up, and the products are summed per position
    in k order.  When ``right``'s columns hold fewer terms, the same runs
    on the transposed product (right^T left^T)[j, i].
    """
    counts = np.diff(left.indptr)[rows]
    col_counts = _column_counts(right)[cols]
    if col_counts.sum() < counts.sum():
        left, right, rows, cols, counts = right.T.tocsr(), left.T.tocsr(), cols, rows, col_counts
    entry = np.repeat(np.arange(len(rows)), counts)
    pos = np.arange(len(entry)) + np.repeat(left.indptr[rows] - (np.cumsum(counts) - counts), counts)
    terms = left.data[pos] * _values_at(right, left.indices[pos], cols[entry])
    return np.bincount(entry, terms, minlength=len(rows))


def _on_pattern(mask, values):
    """A new CSR matrix with ``mask``'s stored positions holding ``values``, zeros dropped."""
    mat = sp.csr_matrix((values, mask.indices, mask.indptr), shape=mask.shape, copy=True)
    mat.eliminate_zeros()
    return mat


def execute_plan(plan, hin, nnz_budget=10**8, keep_slots=False):
    """Run a compiled plan over the store's adjacencies.

    A product whose only reader is a Hadamard step is deferred to that step
    (masked evaluation).  The Hadamard step ranks its two operands by an
    upper bound on their nnz: a deferred product by the bound of
    :func:`_product_nnz_bound`, a computed slot by its nnz.  It computes the
    smaller operand in full and uses it as the mask; the other operand is
    evaluated only at the mask's stored positions, so the full product of a
    denser branch is never allocated.  In a block of three or more
    branches, the inner Hadamard result is an operand of the next one and
    so can mask it.  The counts equal those of forming every product in
    full; only the entry order of a Hadamard result may differ.

    Before a slot is allocated, a bound on its nnz is checked against
    ``nnz_budget``: a load's nnz, or a product's bound (computed only when
    the product's m·n exceeds the budget).  Over budget,
    :class:`ResourceLimitError` is raised before the product is formed.  A
    masked operand and a Hadamard result hold at most the mask's nnz, which
    passed the same check.

    Exact zeros are dropped from storage.  Every slot is a new matrix: a
    load step copies the store's adjacency, so callers may scale a result
    in place.  With ``keep_slots=True`` the slots are returned too; a masked
    operand's slot holds its product restricted to the mask's pattern.
    """
    reads = Counter(i for s in plan.steps if not isinstance(s, LoadStep) for i in (s.left, s.right))
    deferred = {
        i for step in plan.steps if isinstance(step, HadamardStep) for i in (step.left, step.right)
        if isinstance(plan.steps[i], MatMulStep) and reads[i] == 1
    }
    slots = []  # None for a deferred product until its Hadamard step fills it (if keep_slots)

    def guard(bound, shape):
        if bound > nnz_budget:
            raise ResourceLimitError(
                f"intermediate of shape {shape} may hold {bound} nonzeros, over budget {nnz_budget}"
            )

    def bound(index):
        if slots[index] is not None:
            return slots[index].nnz
        step = plan.steps[index]
        return _product_nnz_bound(slots[step.left], slots[step.right])

    def multiply(index):
        step, shape = plan.steps[index], plan.shapes[index]
        left, right = slots[step.left], slots[step.right]
        if shape[0] * shape[1] > nnz_budget:  # otherwise even the cap m·n fits
            guard(_product_nnz_bound(left, right), shape)
        mat = (left @ right).tocsr()
        mat.eliminate_zeros()
        return mat

    for index, (step, shape) in enumerate(zip(plan.steps, plan.shapes)):
        if isinstance(step, LoadStep):
            adj = hin.adjacency(step.relation)
            guard(adj.nnz, shape)
            mat = adj.T.tocsr() if step.transposed else adj.copy()
            mat.eliminate_zeros()
        elif index in deferred:
            mat = None
        elif isinstance(step, MatMulStep):
            mat = multiply(index)
        else:
            first, second = sorted((step.left, step.right), key=bound)
            if slots[first] is None:
                slots[first] = multiply(first)
            mask = slots[first]
            rows = np.repeat(np.arange(shape[0]), np.diff(mask.indptr))
            if slots[second] is None:
                other = plan.steps[second]
                values = _masked_product(slots[other.left], slots[other.right], rows, mask.indices)
                if keep_slots:
                    slots[second] = _on_pattern(mask, values)
            else:
                values = _values_at(slots[second], rows, mask.indices)
            mat = _on_pattern(mask, mask.data * values)
        slots.append(mat)
    sim = SimilarityMatrix(slots[plan.result], plan.metagraph)
    return (sim, slots) if keep_slots else sim


# ---------------------------------------------------------------------------
# Brute-force instance counting (testing oracle)


def _topological_order(spec):
    """Node ids with every edge running forward (Kahn's algorithm); nodes on or after a cycle are left out."""
    ids = [n for n, _ in spec.nodes]
    indeg = {n: 0 for n in ids}
    succ = {n: [] for n in ids}
    for a, b, _, _ in spec.edges:
        indeg[b] += 1
        succ[a].append(b)
    order = []
    ready = [n for n in ids if indeg[n] == 0]
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return order


def _oriented_successors(hin, spec):
    """For each spec edge, a dict mapping source entity -> set of target entities."""
    node_type = dict(spec.nodes)
    maps = []
    for a, b, rel, reverse in spec.edges:
        decl, adj = hin.relations[rel]
        transposed = resolve_orientation(decl, adj, node_type[a], node_type[b], reverse)
        succ = {}
        coo = adj.tocoo()
        rows, cols = (coo.col, coo.row) if transposed else (coo.row, coo.col)
        for i, j, w in zip(rows.tolist(), cols.tolist(), coo.data.tolist()):
            if w != 0:
                succ.setdefault(i, set()).add(j)
        maps.append(((a, b), succ))
    return maps


def _enumerate_instances(spec, hin, source_entity, sink_entity, guard, on_complete):
    order = _topological_order(spec)
    node_type = dict(spec.nodes)
    edge_maps = _oriented_successors(hin, spec)
    in_edges = {n: [] for n in order}
    for (a, b), succ in edge_maps:
        in_edges[b].append((a, succ))

    assign = {}
    budget = [guard]

    def extend(k):
        if k == len(order):
            on_complete(assign)
            return
        node = order[k]
        if node == spec.source:
            # the source is the only node with no in-edges (validated)
            all_sources = range(hin.entity(node_type[node]).count)
            candidates = set(all_sources) if source_entity is None else {source_entity}
        else:
            candidates = None
            for pred, succ in in_edges[node]:
                reachable = succ.get(assign[pred], set())
                candidates = set(reachable) if candidates is None else candidates & reachable
                if not candidates:
                    return
        if node == spec.sink and sink_entity is not None:
            candidates = candidates & {sink_entity}
        for entity in sorted(candidates):
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceLimitError(f"brute-force enumeration exceeded {guard} partial assignments")
            assign[node] = entity
            extend(k + 1)
        assign.pop(node, None)

    extend(0)


def brute_force_count(spec, hin, u, b, guard=10**6):
    """Count metagraph instances from source entity ``u`` to sink entity ``b``.

    Exhaustively assigns HIN entities to spec nodes; intended for small
    binary HINs as an oracle for :func:`execute_plan`.
    """
    total = [0]
    _enumerate_instances(spec, hin, u, b, guard, lambda assign: total.__setitem__(0, total[0] + 1))
    return total[0]


def brute_force_matrix(spec, hin, guard=10**7):
    """Dense instance-count matrix over all (source, sink) entity pairs."""
    m = hin.entity(spec.source_type).count
    n = hin.entity(spec.sink_type).count
    counts = np.zeros((m, n), dtype=np.int64)

    def record(assign):
        counts[assign[spec.source], assign[spec.sink]] += 1

    _enumerate_instances(spec, hin, None, None, guard, record)
    return counts


# ---------------------------------------------------------------------------
# Persistence: one uncompressed .npz of CSR arrays per matrix


def save_similarity(path, sim):
    """Write CSR ``data``/``indices``/``indptr``, ``shape`` and ``metagraph`` to exactly ``path``.

    Through an open handle, because ``np.savez`` appends ``.npz`` to a bare
    path; uncompressed, because compressing costs 20x the time of writing.
    """
    matrix = sim.matrix.tocsr()
    with open(path, "wb") as fh:
        np.savez(
            fh, data=matrix.data, indices=matrix.indices, indptr=matrix.indptr,
            shape=np.asarray(matrix.shape, dtype=np.int64), metagraph=sim.metagraph,
        )


def load_similarity(path):
    with np.load(path, allow_pickle=False) as f:
        matrix = sp.csr_matrix((f["data"], f["indices"], f["indptr"]), shape=tuple(f["shape"].tolist()))
        return SimilarityMatrix(matrix, str(f["metagraph"]))
