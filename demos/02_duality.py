"""Planar duality of Tait graphs and the activity label swap.

The two checkerboard colorings' Tait graphs are planar duals: edge i of
one crosses edge i of the other, with the opposite sign, and between
them they have one vertex per face.  The complement of a spanning tree
of one is a spanning tree of the other, and each edge's activity label
swaps L <-> l-bar, D <-> d-bar, l <-> L-bar, d <-> D-bar.

Run:  python demos/02_duality.py
"""

from khfront import labelled_trees, parse_front, tait_graph
from khfront.trees import PRETTY

WORD = "L1 L2 X1 X1 X1 R2 R1"

front = parse_front(WORD)
graph = tait_graph(front)
dual = tait_graph(front, reverse=True)
n = front.n

print(f"canonical graph : {graph}  signs {[e.sign for e in graph.edges]}")
print(f"reversed graph  : {dual}  signs {[e.sign for e in dual.edges]}")
print(f"signs flip      : "
      f"{[e.sign for e in dual.edges] == [-e.sign for e in graph.edges]}")
print(f"V + V* = n + 2  : {graph.n_vertices + dual.n_vertices == n + 2}")

print("\ntree <-> complementary tree of the reversed graph, with label swaps:")
every_edge = frozenset(range(n))
dual_records = {rec.tree: rec for rec in labelled_trees(dual)}
for rec in labelled_trees(graph):
    complement = every_edge - rec.tree
    dual_labels = dual_records[complement].labels
    swaps = "  ".join(
        f"e{e}: {PRETTY[lab]}->{PRETTY[dual_labels[e]]}"
        for e, lab in rec.labels.items()
    )
    print(f"  T = {sorted(rec.tree)}  T* = {sorted(complement)}   {swaps}")
