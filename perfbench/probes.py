"""Propagation micro-probes: one ``normalize_adjacency(g) @ H`` at the graph
sizes and widths the workloads use, built only from public ``gcnas`` calls.

    python3 perfbench/probes.py

prints one JSON object: for each probe the median time of a few products,
the bytes such a product must move and its flop, both computed from the
matrix shapes (not measured), and the machine the probe ran on.
"""

from __future__ import annotations

import json
import statistics
import time

from child import import_gcnas, machine

REPEATS = 5

# (free cells of the default 19-cell space, width, dtype): the baseline rows
# the workloads sit on; width 32 in float32 is the CI regressor, width 512 in
# float64 the default one (skipped at 6^7, where H alone needs 1.1 GB).
PROBES = (
    (5, 32, "float32"),
    (6, 32, "float32"),
    (7, 32, "float32"),
    (5, 512, "float64"),
    (6, 512, "float64"),
)


#: figures derived from matrix shapes rather than measured
COMPUTED = ("propagate_bytes", "propagate_flop", "propagate_gbps (computed bytes / measured time)")


def probe_name(cells: int, width: int) -> str:
    return f"arch_graph.propagate_ms.h{width}.n6p{cells}"


def run_probes() -> dict[str, float]:
    import numpy as np

    from gcnas import build_graph, default_initial_architecture, default_space, normalize_adjacency
    from gcnas.search_space import Subspace

    spec = default_space()
    initial = default_initial_architecture(spec)
    out: dict[str, float] = {}
    graphs = {}
    for cells, width, dtype in PROBES:
        if cells not in graphs:
            fixed = {p: initial.choices[p] for p in range(cells, spec.num_layers)}
            graphs[cells] = build_graph(Subspace(spec, tuple(range(cells)), fixed))
        a_hat = normalize_adjacency(graphs[cells]).astype(dtype)
        h = np.random.default_rng(cells * width).standard_normal((a_hat.shape[0], width)).astype(dtype)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            a_hat @ h
            times.append(time.perf_counter() - start)
        ms = 1e3 * statistics.median(times)
        item = np.dtype(dtype).itemsize
        n, nnz = a_hat.shape[0], a_hat.nnz
        moved = nnz * (item + 4) + (n + 1) * 4 + 2 * n * width * item
        name = probe_name(cells, width)
        out[name] = ms
        out[name.replace("propagate_ms", "propagate_bytes")] = moved
        out[name.replace("propagate_ms", "propagate_gbps")] = moved / ms / 1e6
        out[name.replace("propagate_ms", "propagate_flop")] = 2 * nnz * width
    return out


if __name__ == "__main__":
    import_gcnas()
    print(json.dumps({"probes": run_probes(), "computed": COMPUTED,
                      "machine": machine()}))
