"""End-to-end pipeline: manifest in, deterministic invariant report out.

Writes a manifest describing a lens space with one foliation and the
leafwise model, runs every subcommand through the `taut3 all` entry
point, and shows that repeated runs agree modulo timings.
"""

import json
import os
import tempfile

from taut3.cli import main

workdir = tempfile.mkdtemp(prefix="taut3-demo-")

n = 16
manifest = {
    "schema_version": 1,
    "manifold": {"family": "Lens", "params": [5, 1]},
    "foliations": [
        {
            "label": "exp-f",
            "omega": ["0", "0", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))"],
            "grid": n,
            "transversal": [[0, 0, k] for k in range(n)],
        }
    ],
    "leafwise": {"weights": [1.0, 1.0, 1.0]},
}
manifest_path = os.path.join(workdir, "lens5.json")
with open(manifest_path, "w") as fh:
    json.dump(manifest, fh, indent=2)
print(f"manifest written to {manifest_path}\n")

reports = []
for run in (1, 2):
    out = os.path.join(workdir, f"report{run}.json")
    code = main(["all", "--manifest", manifest_path, "--out", out, "--seed", "0"])
    print(f"run {run}: exit code {code}")
    with open(out) as fh:
        data = json.load(fh)
    data.pop("timings", None)
    reports.append(data)

print(f"\nreports identical modulo timings: {reports[0] == reports[1]}")
print(f"sections: {sorted(reports[0]['sections'])}\n")
for name, sec in sorted(reports[0]["sections"].items()):
    keys = sorted(sec["values"])
    print(f"  {name:<13} values: {keys}")
    for w in sec["warnings"]:
        print(f"     warning: {w}")
