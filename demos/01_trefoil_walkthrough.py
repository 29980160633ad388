"""Walk through the whole pipeline on the maximal-tb right trefoil front.

Run:  python demos/01_trefoil_walkthrough.py
"""

from khfront import (
    checkerboard,
    classify_activities,
    kauffman_jones,
    khovanov_homology,
    parse_front,
    sharpness_report,
    spanning_trees,
    splice_front,
    tait_graph,
    to_khovanov_bigrading,
    tree_euler_characteristic,
)
from khfront.trees import PRETTY

WORD = "L1 L2 X1 X1 X1 R2 R1"

front = parse_front(WORD)
print(f"front word      : {front.word()}")
print(f"cusp pairs C    : {front.cusp_count}")
print(f"crossings       : {front.crossing_count}")

diagram = front.desingularize()
print(f"\ndesingularized  : {diagram}")
print(f"writhe          : {diagram.writhe()}")
print(f"tb = w - C      : {front.tb()}")
n_faces = len(diagram.face_walks) + diagram.free_loops
print(f"faces (sphere)  : {n_faces}  "
      f"(Euler: {diagram.n} - {2 * diagram.n} + {n_faces} = 2)")

canonical, _ = checkerboard(diagram)
graph = tait_graph(diagram, canonical)
print(f"\nTait graph      : {graph}")
print(f"edge signs      : {[e.sign for e in graph.edges]}")

print("\nspanning trees and activities:")
for tree in spanning_trees(graph):
    rec = classify_activities(graph, tree, front)
    pair = to_khovanov_bigrading(rec, diagram.n, diagram.writhe())
    labels = "".join(PRETTY[rec.labels[k]] for k in sorted(rec.labels))
    spliced, tb_t, c_t = splice_front(front, rec)
    print(f"  edges {sorted(tree)}  labels {labels}  u={rec.u:>2} v={rec.v}"
          f"  class={rec.class_:<7}  generators {pair.ij}")
    print(f"    spliced unknot front: {spliced.word()}  (tb={tb_t}, C={c_t})")

euler = tree_euler_characteristic(graph, diagram.n, diagram.writhe())
jones = kauffman_jones(diagram)
print(f"\ntree Euler char : {euler}")
print(f"Jones (oracle)  : {jones}")
print(f"identical       : {euler == jones}")

table = khovanov_homology(diagram)
print("\ninteger Khovanov homology:")
print(table.pretty())
print(f"min delta j - i : {table.min_delta()}")

report = sharpness_report(front, with_oracle=True)
print(f"\nverdict         : {report.verdict}")
print(f"bound           : tb = {report.tb} "
      f"{'=' if report.tb == report.min_delta else '<'} "
      f"min delta = {report.min_delta}")
