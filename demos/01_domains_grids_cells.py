"""Tour of the geometric layer: domains, grids, cell sets, fattening.

Everything downstream rests on two conventions shown here:
  * point membership is half-open (last cell closed), so cell_of is total;
  * geometric tests treat cells as closed boxes, so over-approximations
    keep every boundary-touching cell.
"""
from chainscope import CellSet, Domain, Grid, fatten, hausdorff

# -- domains and metrics ----------------------------------------------------
box = Domain.box([[0.0, 1.0]])
circle = Domain.circle()

print("distance on [0,1]  :", box.distance(0.2, 0.7))
print("distance on circle :", circle.distance(0.1, 0.9),
      "(wraps around through 1.0)")

# -- grids and the boundary convention ---------------------------------------
grid = Grid(box, 10)
print("\n10-cell grid on [0,1]:")
for x in (0.05, 0.1, 0.9999, 1.0):
    print(f"  cell_of({x}) = {grid.cell_of(x)}")

# -- cell sets are exact boolean masks ---------------------------------------
g100 = Grid(box, 100)
a = CellSet.from_indices(g100, [10, 11, 12])
b = CellSet.from_indices(g100, [12, 13])
print("\nunion:", sorted((a | b).indices()))
print("intersection:", sorted((a & b).indices()))
print("difference:", sorted((a - b).indices()))

# -- fattening keeps every touching cell -------------------------------------
s = CellSet.from_points(g100, [[0.5]])
fat = fatten(s, 0.02)
print("\nfatten(cell of 0.5, eps=0.02) ->", list(fat.indices()),
      "(7 cells covering [0.47, 0.54])")

wrap = fatten(CellSet.from_points(Grid(circle, 100), [[0.0]]), 0.02)
print("fatten on the circle wraps:", sorted(wrap.indices()))

# -- hausdorff distance between cell sets ------------------------------------
p = CellSet.from_points(g100, [[0.0]])
q = CellSet.from_points(g100, [[0.25]])
print("\nhausdorff between cells of 0.0 and 0.25:", hausdorff(p, q))

# -- the textual dump used by regression tests -------------------------------
g2 = Grid(Domain.box([[0, 1], [0, 1]]), (3, 3))
s2 = CellSet.from_indices(g2, [8, 1, 3])
print("\n2-D dump (per-dimension indices, lexicographic):")
print(s2.dumps())
