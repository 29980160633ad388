"""Walk through the whole pipeline on the maximal-tb right trefoil front.

Run:  python demos/01_trefoil_walkthrough.py
"""

from khfront import (
    generator_ij,
    kauffman_jones,
    khovanov_homology,
    labelled_trees,
    parse_front,
    sharpness_report,
    splice_front,
    tait_graph,
    tree_euler_characteristic,
)
from khfront.trees import PRETTY

WORD = "L1 L2 X1 X1 X1 R2 R1"

front = parse_front(WORD)
print(f"front word      : {front.word()}")
print(f"cusp pairs C    : {front.cusp_count}")
print(f"crossings       : {front.n}")

print(f"\ncrossing signs  : {front.crossing_signs()}")
print(f"writhe          : {front.writhe}")
print(f"tb = w - C      : {front.tb()}")
# each face is a vertex of one coloring's Tait graph
graph = tait_graph(front)
n_faces = graph.n_vertices + tait_graph(front, reverse=True).n_vertices
print(f"faces (sphere)  : {n_faces}  "
      f"(Euler: {front.n} - {2 * front.n} + {n_faces} = 2)")
print(f"\nTait graph      : {graph}")
print(f"edge signs      : {[e.sign for e in graph.edges]}")

print("\nspanning trees and activities:")
for rec in labelled_trees(graph, front):
    ij = generator_ij(rec.u, rec.v, front.n, front.writhe)
    labels = "".join(PRETTY[rec.labels[k]] for k in sorted(rec.labels))
    spliced, tb_t, c_t = splice_front(front, rec)
    print(f"  edges {sorted(rec.tree)}  labels {labels}  u={rec.u:>2} v={rec.v}"
          f"  class={rec.class_:<7}  generators {ij}")
    print(f"    spliced unknot front: {spliced.word()}  (tb={tb_t}, C={c_t})")

euler = tree_euler_characteristic(graph, front.n, front.writhe)
jones = kauffman_jones(front)
print(f"\ntree Euler char : {euler}")
print(f"Jones (oracle)  : {jones}")
print(f"identical       : {euler == jones}")

table = khovanov_homology(front)
print("\ninteger Khovanov homology:")
print(table.pretty())
print(f"min delta j - i : {table.min_delta()}")

report = sharpness_report(front, with_oracle=True)
print(f"\nverdict         : {report.verdict}")
print(f"bound           : tb = {report.tb} "
      f"{'=' if report.tb == report.min_delta else '<'} "
      f"min delta = {report.min_delta}")
