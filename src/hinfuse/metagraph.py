"""Metagraph DSL, plan compilation and sparse execution.

A metagraph is a single-source single-sink DAG over entity types.  The
textual form, and the :class:`MetagraphSpec` it parses to, is a chain of
entity types joined by connectors::

    M3: U -[rate]- B -[rate~]- U -[rate]- B
    M9: U -[write]- R -( -[mention]- A -[mention~]- | -[about]- B -[about~]- )- R -[write~]- U -[rate]- B

A connector is either an edge ``-[rel]-`` (``~`` marks traversal against
the relation's declared direction) or a parallel block ``-( ... | ... )-``
whose branches each start and end with a connector.  A block constrains the
surrounding nodes through *every* branch simultaneously: its matrix
semantics is the Hadamard product of the branch products, while plain
chains multiply adjacency matrices left to right.  Entry (u, b) of the
executed plan counts the instances of the metagraph connecting source
entity u to sink entity b.  The grammar yields only series-parallel DAGs, so
a spec is its chain; the brute-force oracle builds the graph it enumerates.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class MetagraphSyntaxError(ValueError):
    """DSL text that does not parse; carries the offending position."""

    def __init__(self, message, position=None):
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class MetagraphValidationError(ValueError):
    """A structurally invalid metagraph (no edge, types that do not alternate with connectors, ...)."""


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
class MetagraphSpec:
    """A metagraph as its chain: entity types joined by connectors, each an edge or a block."""

    name: str
    types: tuple  # entity type names, length == len(connectors) + 1
    connectors: tuple  # EdgeRef | Block

    def __post_init__(self):
        if not self.connectors or len(self.types) != len(self.connectors) + 1:
            raise MetagraphValidationError(
                f"metagraph {self.name!r} must contain at least one edge, with one more type than "
                f"connectors; got {len(self.types)} types and {len(self.connectors)} connectors"
            )

    @property
    def source_type(self):
        return self.types[0]

    @property
    def sink_type(self):
        return self.types[-1]


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
        types, connectors = self.parse_chain()
        if self.peek()[0] != "eof":
            tok = self.peek()
            raise MetagraphSyntaxError(f"unexpected trailing {tok[0]}", tok[2])
        return MetagraphSpec(name, types, connectors)

    def parse_chain(self):
        types = [self.next("ident")[1]]
        connectors = []
        while self.peek()[0] in ("edge", "bopen"):
            connectors.append(self.parse_connector())
            types.append(self.next("ident")[1])
        return tuple(types), tuple(connectors)

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


def parse_metagraph(text):
    """Parse one metagraph definition into a :class:`MetagraphSpec`."""
    return _Parser(_tokenize(text)).parse_metagraph()


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

    parts = [spec.types[0]]
    for conn, type_name in zip(spec.connectors, spec.types[1:]):
        parts.append(fmt_connector(conn))
        parts.append(type_name)
    return f"{spec.name}: " + " ".join(parts)


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
class FaceSplitStep:
    """The row-wise Kronecker (face-splitting) product •ᵢ Aᵢ of operands with equal row counts.

    Row r of the result is kron(A₁[r, :], A₂[r, :], ...), so its shape is
    (a, Πᵢ cᵢ).  With ``columns`` it is the column-wise Kronecker
    (Khatri–Rao) product ⊙ᵢ Aᵢ of operands with equal column counts, of
    shape (Πᵢ cᵢ, b).
    """

    operands: tuple
    columns: bool


@dataclass(frozen=True)
class ExecutionPlan:
    steps: tuple
    shapes: tuple  # result shape per step
    metagraph: str
    costs: tuple = ()  # estimated scalar multiplications per step; 0 for loads and Hadamard steps

    @property
    def result(self):
        return len(self.steps) - 1

    @property
    def shape(self):
        return self.shapes[-1]


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


@dataclass(frozen=True)
class _Sketch:
    """Stored entries per row and per column of a slot, and in all: exact for a load, estimated otherwise."""

    rows: np.ndarray
    cols: np.ndarray
    nnz: float


def _load_sketch(adj, transposed):
    rows, cols = np.diff(adj.indptr).astype(float), _column_counts(adj).astype(float)
    return _Sketch(cols, rows, float(adj.nnz)) if transposed else _Sketch(rows, cols, float(adj.nnz))


def _product_sketch(left, right):
    """Sketch of ``left @ right`` from its operands' sketches (MNC: Sommer et al., SIGMOD 2019).

    The nnz is exact when a row of ``left`` or a column of ``right`` holds
    at most one entry, since no two scalar products then meet in one
    output entry; otherwise it is the density-map estimate
    m·n·(1 - Π_k (1 - c_left[k]·r_right[k] / (m·n))).  The row counts
    scale ``left``'s and the column counts ``right``'s to that nnz, capped
    at n and m.
    """
    m, n = len(left.rows), len(right.cols)
    terms = float(_product_terms(left.cols, right.rows))
    if terms == 0 or left.rows.max() <= 1 or right.cols.max() <= 1:
        nnz = terms
    else:
        with np.errstate(divide="ignore"):  # a k with c·r = m·n fills the product: log1p(-1) = -inf
            nnz = -m * n * float(np.expm1(np.log1p(-left.cols * right.rows / (m * n)).sum()))
    if nnz == 0:
        return _Sketch(np.zeros(m), np.zeros(n), 0.0)
    return _Sketch(
        np.minimum(left.rows * (nnz / left.nnz), n), np.minimum(right.cols * (nnz / right.nnz), m), nnz
    )


def _face_split_sketch(sketches):
    """Sketch of the face-splitting product of operands with these sketches.

    Its row counts are the products of the operands' row counts, exact when
    theirs are, and they sum to its nnz Σ_r Πᵢ nnz(Aᵢ[r, :]).  Its column
    counts spread that nnz over the Πᵢ cᵢ columns in proportion to the
    Kronecker product of the operands' column shares, capped at the row
    count.
    """
    rows = np.prod([s.rows for s in sketches], axis=0)
    nnz = float(rows.sum())
    shares = np.ones(1)
    for s in sketches:
        shares = np.kron(shares, s.cols / s.nnz if s.nnz else s.cols)
    return _Sketch(rows, np.minimum(shares * nnz, len(rows)), nnz)


def _transposed(sketch):
    return _Sketch(sketch.cols, sketch.rows, sketch.nnz)


def _cheapest_splits(nodes, optimize):
    """Matrix-chain DP over estimated scalar multiplications, for a chain of two or more ``nodes``.

    Returns, per interval (i, j): its sketch, always propagated left to
    right so that it does not depend on the split; the split k into (i, k)
    and (k + 1, j); Σ :func:`_product_terms` over the interval's products;
    and those of its own product.  With ``optimize`` k minimises that sum,
    ties going to the largest k, so a chain whose splits all cost the same
    keeps its left-to-right association; without, k is fixed at j - 1.
    """
    for left, right in zip(nodes, nodes[1:]):
        if left.shape[1] != right.shape[0]:
            raise PlanCompileError(f"cannot multiply {left.shape} by {right.shape}")
    n = len(nodes)
    sketch = {(i, i): node.sketch for i, node in enumerate(nodes)}
    cost = {(i, i): 0.0 for i in range(n)}
    split, terms = {}, {}
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            sketch[i, j] = _product_sketch(sketch[i, j - 1], sketch[j, j])
            for k in range(j - 1, i - 1 if optimize else j - 2, -1):
                t = float(_product_terms(sketch[i, k].cols, sketch[k + 1, j].rows))
                c = cost[i, k] + cost[k + 1, j] + t
                if (i, j) not in cost or c < cost[i, j]:
                    cost[i, j], split[i, j], terms[i, j] = c, k, t
    return sketch, split, cost, terms


@dataclass(frozen=True)
class _Node:
    """A slot of a plan being compiled, as plain data.

    ``rank`` is what :func:`execute_plan` ranks the slot by as a Hadamard
    operand (a product's bound, else the nnz), ``cost`` the estimated scalar
    multiplications of all its steps.  ``steps`` are its own (step, shape,
    cost), whose slot indices are local: ``inputs`` in order, then each step.
    """

    shape: tuple
    sketch: _Sketch
    rank: float
    cost: float
    inputs: tuple
    steps: tuple


def _emit(node, out):
    """Append the steps of ``node`` to ``out``, its inputs' first and in order; return its slot."""
    slots = [_emit(source, out) for source in node.inputs]
    for step, shape, cost in node.steps:
        if isinstance(step, FaceSplitStep):
            step = FaceSplitStep(tuple(slots[i] for i in step.operands), step.columns)
        elif not isinstance(step, LoadStep):
            step = type(step)(slots[step.left], slots[step.right])
        slots.append(len(out))
        out.append((step, shape, cost))
    return slots[-1]


def _load(hin, edge, src_type, dst_type):
    if edge.relation not in hin.relations:
        raise PlanCompileError(f"unknown relation {edge.relation!r}")
    decl, adj = hin.relations[edge.relation]
    declared = (hin.entity(decl.head_type).count, hin.entity(decl.tail_type).count)
    if adj.shape != declared:
        raise PlanCompileError(
            f"adjacency for {edge.relation!r} has shape {adj.shape}, "
            f"expected {declared}; was the store re-shaped after ingestion?"
        )
    transposed = resolve_orientation(decl, adj, src_type, dst_type, edge.reverse)
    shape = (declared[1], declared[0]) if transposed else declared
    sketch = _load_sketch(adj, transposed)
    return _Node(shape, sketch, sketch.nnz, 0.0, (), ((LoadStep(edge.relation, transposed), shape, 0.0),))


def _product(nodes, table, lo, hi):
    """The node of ``nodes[lo..hi]``'s product, associated as the chain's DP ``table`` splits it."""
    if lo == hi:
        return nodes[lo]
    sketch, split, cost, terms = table
    order, pending = [], [(lo, hi)]
    while pending:  # each product, then its right operand's, then its left operand's
        i, j = pending.pop()
        if i < j:
            order.append((i, j))
            pending += [(i, split[i, j]), (split[i, j] + 1, j)]
    slot = {(i, i): i - lo for i in range(lo, hi + 1)}
    steps = []
    for i, j in reversed(order):  # every product after both its operands
        k = split[i, j]
        slot[i, j] = len(slot)
        step_shape = (nodes[i].shape[0], nodes[j].shape[1])
        steps.append((MatMulStep(slot[i, k], slot[k + 1, j]), step_shape, terms[i, j]))
    shape, inputs = (nodes[lo].shape[0], nodes[hi].shape[1]), tuple(nodes[lo:hi + 1])
    return _Node(shape, sketch[lo, hi], min(terms[lo, hi], shape[0] * shape[1]),
                 cost[lo, hi] + sum(node.cost for node in inputs), inputs, tuple(steps))


def _chain(hin, optimize, connectors, types):
    """A chain's cheapest product, its operands, their DP table, and the operand positions ending a connector.

    Each connector offers one or more forms (:func:`_connector`).  Starting
    from every block as a Hadamard slot, each block in turn takes the form
    that lowers the product's cost, the others held fixed.
    """
    forms = [_connector(hin, optimize, conn, types[i], types[i + 1]) for i, conn in enumerate(connectors)]

    def product(choice):
        nodes = [node for form, c in zip(forms, choice) for node in form[c]]
        table = _cheapest_splits(nodes, optimize) if len(nodes) > 1 else None
        return _product(nodes, table, 0, len(nodes) - 1), nodes, table

    choice = [0] * len(forms)
    best = product(choice)
    for i, form in enumerate(forms):
        for c in range(1, len(form)):
            trial = choice[:i] + [c] + choice[i + 1:]
            candidate = product(trial)
            if candidate[0].cost < best[0].cost:
                best, choice = candidate, trial
    ends = np.cumsum([len(form[c]) for form, c in zip(forms, choice)])
    return (*best, ends[:-1].tolist())


def _connector(hin, optimize, conn, src_type, dst_type):
    """The forms a connector can take in its chain, each a list of operands.

    An edge is one load.  A block is first one Hadamard slot; with
    ``optimize`` it may also be spliced as the two operands
    (•ᵢ Lᵢ)(⊙ᵢ Rᵢ) of :func:`_splices`.
    """
    if isinstance(conn, EdgeRef):
        return [[_load(hin, conn, src_type, dst_type)]]
    want = (hin.entity(src_type).count, hin.entity(dst_type).count)
    branches = []
    for branch in conn.branches:
        branches.append(_chain(hin, optimize, branch.connectors, [src_type, *branch.inner_types, dst_type]))
        if branches[-1][0].shape != want:
            raise PlanCompileError(
                f"branch endpoint mismatch: block joins {src_type} to {dst_type} "
                f"{want} but a branch produced {branches[-1][0].shape}"
            )
    forms = [[_hadamard([node for node, *_ in branches], want)]]
    return (forms + _splices(branches)) if optimize else forms


def _hadamard(branches, shape):
    sketch, rank = branches[0].sketch, branches[0].rank
    for node in branches[1:]:
        if node.rank < rank:  # the mask; the left operand on a tie, as in execute_plan
            sketch = node.sketch
        rank = sketch.nnz
    n = len(branches)  # local slots: the branches, then each fold's result
    steps = tuple((HadamardStep(n + b - 2 if b > 1 else 0, b), shape, 0.0) for b in range(1, n))
    return _Node(shape, sketch, rank, sum(node.cost for node in branches), tuple(branches), steps)


def _splices(branches):
    """Each way to cut every branch at a connector boundary into Lᵢ·Rᵢ, as operands [•ᵢ Lᵢ, ⊙ᵢ Rᵢ].

    (L₁R₁) ∘ (L₂R₂) = (L₁ • L₂)(R₁ ⊙ R₂), the mixed-product identity of
    the face-splitting and Khatri–Rao products.  Lᵢ and Rᵢ take their
    intervals of the branch's DP table, which hold what a DP over each would.
    A cut whose inner width Πᵢ cᵢ exceeds the stored entries of its Lᵢ and
    Rᵢ is skipped, so the sketches stay that small.
    """
    halves = [[(_product(nodes, table, 0, k - 1), _product(nodes, table, k, len(nodes) - 1)) for k in ends]
              for _, nodes, table, ends in branches]
    forms = []
    for cut in itertools.product(*halves):
        lefts, rights = zip(*cut)
        width = math.prod(node.shape[1] for node in lefts)
        if width <= sum(node.sketch.nnz for node in lefts + rights):
            forms.append([_face_split_node(lefts, False), _face_split_node(rights, True)])
    return forms


def _face_split_node(operands, columns):
    if columns:
        sketch = _transposed(_face_split_sketch([_transposed(node.sketch) for node in operands]))
        shape = (math.prod(node.shape[0] for node in operands), operands[0].shape[1])
    else:
        sketch = _face_split_sketch([node.sketch for node in operands])
        shape = (operands[0].shape[0], math.prod(node.shape[1] for node in operands))
    step = FaceSplitStep(tuple(range(len(operands))), columns)
    return _Node(shape, sketch, sketch.nnz, sketch.nnz + sum(node.cost for node in operands), operands,
                 ((step, shape, sketch.nnz),))  # one multiplication per stored entry


def compile_plan(spec, hin, optimize=False):
    """Compile a metagraph into loads, sparse products, Hadamard and face-splitting products.

    With ``optimize=False`` every chain associates left to right and every
    parallel block is a Hadamard product of its branch products, as the
    paper writes it.  ``optimize=True`` minimises the estimated scalar
    multiplications summed over the plan's steps, the sum of
    ``plan.costs``:

    - each chain (a block's branches and the outer chain) takes the
      association with the fewest multiplications Σ_k c_A[k]·r_B[k] over
      its products (:func:`_cheapest_splits`, the DP that the literal
      plan runs with every split fixed);
    - a block whose branches are each cut at a connector boundary into
      Lᵢ·Rᵢ may be spliced into the enclosing chain as two operands,
      since ∘ᵢ (LᵢRᵢ) = (•ᵢ Lᵢ)(⊙ᵢ Rᵢ): the face-splitting product of the
      Lᵢ and the Khatri–Rao product of the Rᵢ (:class:`FaceSplitStep`).
      The chain can then associate across the block, and no product over
      the block's own endpoints need be formed.  Each block takes the
      form, and the cuts, that make its chain cheapest; the Hadamard form
      is kept when splicing costs more.

    The counts come from a sketch of every slot: exact row and column
    counts for a load, an MNC estimate for a product, for a Hadamard step
    the sketch of the operand that :func:`execute_plan` uses as its mask,
    and for a face-splitting product exact row counts when its operands'
    are.  Every plan of a metagraph gives the same integer counts, so only
    the cost changes.  ``plan.costs`` holds each step's estimate.  The plan
    is chosen as a tree of :class:`_Node` values, which :func:`_emit` lists.
    """
    for type_name in spec.types:
        hin.entity(type_name)  # raises KeyError on undeclared types
    out = []
    _emit(_chain(hin, optimize, spec.connectors, spec.types)[0], out)
    steps, shapes, costs = zip(*out)
    return ExecutionPlan(steps, shapes, spec.name, costs)


_COUNT_CHUNK = 2**20  # stored entries counted per np.bincount call


def _column_counts(matrix):
    """Stored entries per column, counted in chunks: ``np.bincount`` copies its input to int64."""
    counts = np.zeros(matrix.shape[1], dtype=np.int64)
    for start in range(0, matrix.nnz, _COUNT_CHUNK):
        counts += np.bincount(matrix.indices[start:start + _COUNT_CHUNK], minlength=matrix.shape[1])
    return counts


def _product_terms(left_cols, right_rows):
    """Σ_k left_cols[k]·right_rows[k]: the scalar multiplications of a sparse product.

    ``left_cols`` counts the left operand's stored entries per column and
    ``right_rows`` the right operand's per row, exactly or as a sketch's
    estimates.  The planner minimises it; capped at m·n, it bounds the
    product's nnz for the executor.
    """
    return left_cols @ right_rows


def _product_nnz_bound(left, right):
    """Upper bound on the stored nonzeros of ``left @ right``, without forming it.

    :func:`_product_terms` of the exact counts, capped at the result's m·n.
    """
    terms = _product_terms(_column_counts(left), np.diff(right.indptr))
    return min(int(terms), left.shape[0] * right.shape[1])


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


def _face_split(operands, counts):
    """The face-splitting product •ᵢ Aᵢ of CSR matrices with equal row counts.

    Row r holds a product of one stored entry from each operand's row r,
    for every such choice (k₁, k₂, ...), at column (k₁·c₂ + k₂)·c₃ + ...;
    within a row they run in k₁-major order.  ``counts`` holds the
    result's stored entries per row, Πᵢ nnz(Aᵢ[r, :]).
    """
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    offset = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
    indices = np.zeros(len(offset), dtype=np.int64)
    data = np.ones(len(offset))
    stride = 1
    for m in reversed(operands):  # peel each row's offset into one entry position per operand
        offset, digit = np.divmod(offset, np.repeat(np.diff(m.indptr), counts))
        at = np.repeat(m.indptr[:-1], counts) + digit
        indices += m.indices[at].astype(np.int64) * stride
        data *= m.data[at]
        stride *= m.shape[1]
    return sp.csr_matrix((data, indices, indptr), shape=(len(counts), stride))


def _inputs(step):
    if isinstance(step, LoadStep):
        return ()
    if isinstance(step, FaceSplitStep):
        return step.operands
    return (step.left, step.right)


def execute_plan(plan, hin, nnz_budget=10**8, keep_slots=False):
    """Run a compiled plan over the store's adjacencies; return the result slot's CSR matrix.

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

    A :class:`FaceSplitStep` forms the face-splitting product of its
    operands, or the Khatri–Rao product as that of their transposes,
    transposed.

    Before a slot is allocated, a bound on its nnz is checked against
    ``nnz_budget``: a load's nnz, a face-splitting product's exact nnz
    Σ_r Πᵢ nnz(Aᵢ[r, :]), or a product's bound (computed only when the
    product's m·n exceeds the budget).  Over budget,
    :class:`ResourceLimitError` (naming the metagraph and the step) is
    raised before the slot is formed.  A masked operand and a Hadamard
    result hold at most the mask's nnz, which passed the same check.

    Exact zeros are dropped from storage.  Every slot is a new matrix: a
    load step copies the store's adjacency, so callers may scale a result
    in place.  With ``keep_slots=True`` the pair ``(result, slots)`` is returned; a masked
    operand's slot holds its product restricted to the mask's pattern.
    """
    reads = Counter(i for step in plan.steps for i in _inputs(step))
    deferred = {
        i for step in plan.steps if isinstance(step, HadamardStep) for i in (step.left, step.right)
        if isinstance(plan.steps[i], MatMulStep) and reads[i] == 1
    }
    slots = []  # None for a deferred product until its Hadamard step fills it (if keep_slots)

    def guard(bound, index):
        if bound > nnz_budget:
            raise ResourceLimitError(
                f"intermediate of shape {plan.shapes[index]} may hold {bound} nonzeros, over budget "
                f"{nnz_budget} ({plan.metagraph}, step {index}, {type(plan.steps[index]).__name__})"
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
            guard(_product_nnz_bound(left, right), index)
        mat = (left @ right).tocsr()
        mat.eliminate_zeros()
        return mat

    for index, (step, shape) in enumerate(zip(plan.steps, plan.shapes)):
        if isinstance(step, LoadStep):
            adj = hin.adjacency(step.relation)
            guard(adj.nnz, index)
            mat = adj.T.tocsr() if step.transposed else adj.copy()
            mat.eliminate_zeros()
        elif index in deferred:
            mat = None
        elif isinstance(step, MatMulStep):
            mat = multiply(index)
        elif isinstance(step, FaceSplitStep):  # Khatri–Rao: the face split of the transposes, transposed
            operands = [slots[i].T.tocsr() if step.columns else slots[i] for i in step.operands]
            counts = np.prod([np.diff(m.indptr) for m in operands], axis=0, dtype=np.int64)
            guard(int(counts.sum()), index)
            mat = _face_split(operands, counts)
            mat = mat.T.tocsr() if step.columns else mat
            mat.eliminate_zeros()
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
    return (slots[plan.result], slots) if keep_slots else slots[plan.result]


# ---------------------------------------------------------------------------
# Brute-force instance counting (testing oracle)


def _instance_graph(spec):
    """The metagraph's DAG: node types in topological order and edges ``(from, to, EdgeRef)``.

    Nodes are numbered by their position.  A block's inner nodes come before
    its closing node, so every edge runs forward, node 0 is the source and
    the last node the sink.
    """
    nodes, edges = [], []

    def close(ends, type_name):
        """Add a node of ``type_name`` and the edges ``ends`` (from, EdgeRef) into it; return it."""
        nodes.append(type_name)
        edges.extend((a, len(nodes) - 1, edge) for a, edge in ends)
        return len(nodes) - 1

    def open_ends(conn, a):
        """Add ``conn``'s inner nodes from node ``a``; return its edges into its closing node."""
        if isinstance(conn, EdgeRef):
            return [(a, conn)]
        ends = []
        for branch in conn.branches:
            prev = a
            for inner, type_name in zip(branch.connectors, branch.inner_types):
                prev = close(open_ends(inner, prev), type_name)
            ends += open_ends(branch.connectors[-1], prev)
        return ends

    prev = close([], spec.types[0])
    for conn, type_name in zip(spec.connectors, spec.types[1:]):
        prev = close(open_ends(conn, prev), type_name)
    return nodes, edges


def _oriented_successors(hin, nodes, edges):
    """For each edge, ``(from, to, succ)`` with ``succ`` mapping a from-entity to its set of to-entities."""
    maps = []
    for a, b, edge in edges:
        decl, adj = hin.relations[edge.relation]
        transposed = resolve_orientation(decl, adj, nodes[a], nodes[b], edge.reverse)
        succ = {}
        coo = adj.tocoo()
        rows, cols = (coo.col, coo.row) if transposed else (coo.row, coo.col)
        for i, j, w in zip(rows.tolist(), cols.tolist(), coo.data.tolist()):
            if w != 0:
                succ.setdefault(i, set()).add(j)
        maps.append((a, b, succ))
    return maps


def _enumerate_instances(spec, hin, source_entity, sink_entity, guard, on_complete):
    """Call ``on_complete(assign)`` per instance; ``assign[k]`` is the entity at node k of :func:`_instance_graph`."""
    nodes, edges = _instance_graph(spec)
    in_edges = [[] for _ in nodes]
    for a, b, succ in _oriented_successors(hin, nodes, edges):
        in_edges[b].append((a, succ))
    assign = [None] * len(nodes)
    budget = [guard]

    def extend(k):
        if k == len(nodes):
            on_complete(assign)
            return
        if k == 0:  # the source, the only node with no in-edges
            candidates = set(range(hin.entity(nodes[0]).count)) if source_entity is None else {source_entity}
        else:
            candidates = None
            for pred, succ in in_edges[k]:
                reachable = succ.get(assign[pred], set())
                candidates = set(reachable) if candidates is None else candidates & reachable
                if not candidates:
                    return
        if k == len(nodes) - 1 and sink_entity is not None:
            candidates = candidates & {sink_entity}
        for entity in sorted(candidates):
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceLimitError(f"brute-force enumeration exceeded {guard} partial assignments")
            assign[k] = entity
            extend(k + 1)

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
        counts[assign[0], assign[-1]] += 1

    _enumerate_instances(spec, hin, None, None, guard, record)
    return counts


# ---------------------------------------------------------------------------
# Persistence: one uncompressed .npz of CSR arrays per matrix


@contextlib.contextmanager
def atomic_write(path):
    """A binary file handle whose contents land at ``path`` only once the block completes.

    The block writes a temporary file beside ``path`` that is then renamed over it, so a
    write that raises or is killed partway leaves no file at ``path``; a raising block
    also removes the temporary file.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_similarity(path, matrix, metagraph):
    """Write the CSR ``matrix`` (``data``/``indices``/``indptr``, ``shape``) and its ``metagraph``
    name to exactly ``path`` (see :func:`atomic_write`); return the file's :class:`SimilarityFile`.

    Through an open handle, because ``np.savez`` appends ``.npz`` to a bare
    path; uncompressed, because compressing costs 20x the time of writing.
    """
    with atomic_write(path) as fh:
        np.savez(
            fh, data=matrix.data, indices=matrix.indices, indptr=matrix.indptr,
            shape=np.asarray(matrix.shape, dtype=np.int64), metagraph=metagraph,
        )
    return SimilarityFile(os.fspath(path), metagraph, matrix.shape, matrix.nnz)


@dataclass(frozen=True)
class SimilarityFile:
    """A similarity matrix written by :func:`save_similarity`, known by its file: the path, the
    metagraph, the shape and the nnz.  The record holds no entries; :attr:`matrix` reads them
    from the file on every access."""

    path: str
    metagraph: str
    shape: tuple
    nnz: int

    @classmethod
    def read(cls, path):
        """The record of the file at ``path``, from its ``shape``, ``indptr`` and ``metagraph``
        members only: the entries (``data`` and ``indices``) are not read."""
        with np.load(path, allow_pickle=False) as f:
            return cls(os.fspath(path), str(f["metagraph"]), tuple(f["shape"].tolist()),
                       int(f["indptr"][-1]))

    @property
    def matrix(self):
        """The CSR matrix, read from the file."""
        with np.load(self.path, allow_pickle=False) as f:
            return sp.csr_matrix((f["data"], f["indices"], f["indptr"]), shape=tuple(f["shape"].tolist()))
