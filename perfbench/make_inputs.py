"""Write the input datasets of one benchmark run.

Run as a child process of ``run.py`` so that the memory and time spent
generating inputs never show in the measuring process:

    python3 perfbench/make_inputs.py --scenario '{"topology": "sphere", "n": 50}' \
        --seed 0 --count 4 --out DIR

One ground truth is drawn from ``--seed``; each of the ``--count``
datasets overlays its own measurement noise on it, with noise seed
``seed * 1000 + k``. The same noise seed later drives the GPS initial
guess. ``DIR/manifest.json`` lists the datasets and the graph statistics
that a result records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAU = 0.5
KAPPA = 0.524
SEEDS_PER_RUN = 1000


def noise_seed(seed: int, k: int) -> int:
    return seed * SEEDS_PER_RUN + k


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True,
                        help="scenario section as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.count <= SEEDS_PER_RUN:
        parser.error(f"--count must lie in 1..{SEEDS_PER_RUN}")

    sys.path.insert(0, str(ROOT / "src"))
    from geopgo import io as gio
    from geopgo.synth import (NoiseModel, ScenarioSpec, corrupt_measurements,
                              generate_ground_truth)

    spec = ScenarioSpec.from_dict(json.loads(args.scenario))
    truth, topology = generate_ground_truth(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datasets = []
    for k in range(args.count):
        noise = NoiseModel(tau=TAU, kappa=KAPPA,
                           seed=noise_seed(args.seed, k))
        graph = corrupt_measurements(truth, topology, noise)
        path = out / f"dataset{k}.json"
        gio.save_dataset(path, gio.Dataset(
            graph=graph, vertices=truth, vertex_kind="ground_truth",
            scenario=spec, noise=noise, seed=args.seed))
        datasets.append({"path": str(path), "noise_seed": noise.seed})

    degrees = [len(topology.neighbors(i)) for i in range(topology.n)]
    manifest = {
        "scenario": spec.to_dict(),
        "seed": args.seed,
        "tau": TAU,
        "kappa": KAPPA,
        "n": topology.n,
        "directed_edges": topology.directed_count,
        "degree": {"min": min(degrees), "mean": sum(degrees) / len(degrees),
                   "max": max(degrees)},
        "datasets": datasets,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
