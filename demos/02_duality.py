"""Planar duality of Tait graphs and the activity label swap.

The dual graph flips every sign and keeps edge order, and it is the
other coloring's Tait graph, dart for dart; the complement of a spanning
tree is a spanning tree of the dual, and each edge's activity label
swaps L <-> l-bar, D <-> d-bar, l <-> L-bar, d <-> D-bar.

Run:  python demos/02_duality.py
"""

from khfront import (
    checkerboard,
    dual_graph,
    labelled_trees,
    parse_front,
    tait_graph,
)
from khfront.trees import PRETTY

WORD = "L1 L2 X1 X1 X1 R2 R1"

diagram = parse_front(WORD).desingularize()
canonical, reversed_coloring = checkerboard(diagram)
graph = tait_graph(diagram, canonical)
dual = dual_graph(graph)

print(f"canonical graph : {graph}  signs {[e.sign for e in graph.edges]}")
print(f"dual graph      : {dual}  signs {[e.sign for e in dual.edges]}")
print(f"double dual     : matches original = "
      f"{dual_graph(dual).matched_to(graph)}")
print(f"dual == other coloring's graph, dart for dart = "
      f"{dual.matched_to(tait_graph(diagram, reversed_coloring))}")

print("\ntree <-> complementary dual tree, with label swaps:")
every_edge = frozenset(range(len(graph.edges)))
dual_records = {rec.tree: rec for rec in labelled_trees(dual)}
for rec in labelled_trees(graph):
    complement = every_edge - rec.tree
    dual_labels = dual_records[complement].labels
    swaps = "  ".join(
        f"e{e}: {PRETTY[lab]}->{PRETTY[dual_labels[e]]}"
        for e, lab in rec.labels.items()
    )
    print(f"  T = {sorted(rec.tree)}  T* = {sorted(complement)}   {swaps}")
