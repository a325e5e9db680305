"""Metagraph similarities on a toy review network.

Builds a small typed graph in memory, compiles a few metagraphs down to
sparse matrix products, and cross-checks the counts against exhaustive
instance enumeration.
"""

import numpy as np
import scipy.sparse as sp

from hinfuse import metagraph as mg
from hinfuse.hin import EntitySet, HinStore, RelationDecl

# --- a hand-made network: 3 users, 3 businesses, 4 reviews, 2 aspects ------
# the store holds each relation as a float64 CSR matrix (head entities x tail entities)

def adjacency(dense, head, tail, name, store):
    store.relations[name] = (RelationDecl(name, head, tail), sp.csr_matrix(dense, dtype=np.float64))

store = HinStore()
for type_name, count in {"U": 3, "B": 3, "R": 4, "A": 2}.items():
    entity = EntitySet(type_name)
    for i in range(count):
        entity.index(f"{type_name.lower()}{i}")
    store.entities[type_name] = entity

adjacency([[1, 1, 0], [0, 1, 1], [1, 0, 1]], "U", "B", "rate", store)
adjacency([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], "U", "R", "write", store)
adjacency([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], "R", "B", "about", store)
adjacency([[1, 0], [1, 0], [1, 1], [0, 1]], "R", "A", "mention", store)

# --- similarity = number of metagraph instances connecting user to business

SHAPES = [
    "M_direct: U -[rate]- B",
    "M_cf:     U -[rate]- B -[rate~]- U -[rate]- B",
    "M_review: U -[write]- R -[mention]- A -[mention~]- R -[about]- B",
    # the parallel block requires BOTH branches: reviews on the same business
    # AND mentioning the same aspect (Hadamard of the branch products)
    "M_both:   U -[write]- R -( -[about]- B -[about~]- | -[mention]- A -[mention~]- )- "
    "R -[write~]- U -[rate]- B",
]

for text in SHAPES:
    spec = mg.parse_metagraph(text)
    plan = mg.compile_plan(spec, store)
    sim = mg.execute_plan(plan, store)
    counts = np.asarray(sim.todense()).astype(int)
    oracle = mg.brute_force_matrix(spec, store)
    print(f"{spec.name}: plan has {len(plan.steps)} steps "
          f"({sum(isinstance(s, mg.HadamardStep) for s in plan.steps)} Hadamard)")
    print(counts)
    assert np.array_equal(counts, oracle), "plan disagrees with enumeration!"
print("every plan matches brute-force instance counting")

# the compiled plan is inspectable: loads, products, Hadamard steps
plan = mg.compile_plan(mg.parse_metagraph(SHAPES[3]), store)
for i, step in enumerate(plan.steps):
    print(f"  slot {i:2d}: {step} -> shape {plan.shapes[i]}")

# the pipeline compiles with optimize=True: a cost-based planner. On M9 it splices the
# block into the chain as K = mention • about (face-splitting product: row r of K is
# kron(mention[r], about[r])) and its Khatri-Rao counterpart, so no review x review
# matrix is formed. The counts are the same.
m9 = next(spec for spec in mg.bundled_metagraphs("yelp") if spec.name == "M9")
plan = mg.compile_plan(m9, store, optimize=True)
print(f"{m9.name}, optimized plan:")
for i, step in enumerate(plan.steps):
    print(f"  slot {i:2d}: {step} -> shape {plan.shapes[i]}")
counts = np.asarray(mg.execute_plan(plan, store).todense()).astype(int)
assert np.array_equal(counts, mg.brute_force_matrix(m9, store)), "optimized plan disagrees!"
