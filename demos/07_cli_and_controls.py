"""CLI round trip plus a controlled system and a 2-D map.

Configs are strict JSON (unknown keys are rejected), reports are canonical
(sorted keys, 12-significant-digit floats) and byte-identical across reruns
and thread counts; bulky payloads land in sidecar CSV files.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from chainscope import (
    CellSet,
    Domain,
    Grid,
    affine2d,
    drift_control,
    forward_reach,
    build_graph,
    orbit_reach,
)

# -- drive the CLI ------------------------------------------------------------
with tempfile.TemporaryDirectory(prefix="chainscope_demo_") as tmp:
    workdir = Path(tmp)
    cfg = {
        "system": {"name": "square"},
        "grid": {"cells_per_dim": [4096]},
        "x": 1.0,
        "eps": 0.1,
    }
    cfg_path = workdir / "robust.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = workdir / "report.json"

    proc = subprocess.run(
        [sys.executable, "-m", "chainscope.cli", "robust",
         "--config", str(cfg_path), "--out", str(out_path), "--quiet"],
        capture_output=True, text=True,
    )
    print("exit code:", proc.returncode, "(0 even for a non-robust finding)")
    report = json.loads(out_path.read_text())
    print("verdict:", report["outcome"]["verdict"])
    print("witness sidecar:", report["outcome"]["witness_file"])
    print("first witness rows:")
    for line in (workdir / "robust_witness.csv").read_text().splitlines()[:4]:
        print(" ", line)

# -- a controlled system: the reach tree under all control choices -------------
sys_dc = drift_control(0.5)          # x -> 0.5 x + u, u in {-0.1, 0, 0.1}
grid = Grid(Domain.box([[-1, 1]]), 400)
res = orbit_reach(sys_dc, 0.9, grid)
centers = res.cells.centers()[:, 0]
print("\ndrift_control reach tree from 0.9 spans "
      f"[{centers.min():.3f}, {centers.max():.3f}]"
      " -> settles into the controlled-invariant interval [-0.2, 0.2]")

# -- a 2-D affine contraction ---------------------------------------------------
sys2 = affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15])
g2 = Grid(Domain.box([[0, 1], [0, 1]]), (24, 24))
graph = build_graph(sys2, g2, 4 * g2.cell_diameter)
reach = forward_reach(graph, CellSet.from_points(g2, [[0.9, 0.9]]))
print(f"\naffine2d reach from (0.9, 0.9): {len(reach)} of {g2.n_cells} cells "
      "(a funnel toward the unique fixed point)")
