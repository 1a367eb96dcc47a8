"""Layer map: every module under ``src/repro/`` belongs to exactly one layer.

A module's layer is looked up by the first component of its dotted name
below ``repro`` (``repro.cpu.lfb`` -> ``cpu``), so a new module inside an
existing package is mapped automatically, while a new top-level module or
package must be added to :data:`LAYER_OF` (``test_layers.py`` fails until
it is).  Profiled frames outside ``src/repro/`` -- builtins, the standard
library, numpy and this benchmark's own wrappers -- go to ``other``.
"""

from __future__ import annotations

import os
from pathlib import Path

#: First component below ``repro`` -> layer.
LAYER_OF = {
    "sim": "sim",
    "cpu": "cpu",
    "units": "units",
    "runtime": "runtime",
    "interconnect": "interconnect",
    "device": "device",
    "workloads": "workloads",
    "memory": "memory",
    "host": "host",
    # Frozen platform description, read while ``System`` is built.
    "config": "host",
    "harness": "harness",
    # Tooling around the model; none of it runs inside a sweep job.
    "__init__": "harness",
    "__main__": "harness",
    "analysis": "harness",
    "cli": "harness",
    "errors": "harness",
    "taxonomy": "harness",
    "testing": "harness",
    "obs": "obs",
}

OTHER = "other"

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values())) + (OTHER,)


def module_of(path: str, src_root: Path) -> str | None:
    """Dotted name (``repro.cpu.lfb``) of a ``.py`` file under
    ``src_root/repro``, else None."""
    package = str(src_root.resolve() / "repro") + os.sep
    if not (path.startswith(package) and path.endswith(".py")):
        return None
    return "repro." + path[len(package):-3].replace(os.sep, ".")


def layer_of(module: str | None) -> str:
    """Layer of a dotted ``repro.*`` module name; ``other`` for None."""
    if module is None:
        return OTHER
    key = module.split(".")[1]
    if key not in LAYER_OF:
        raise KeyError(f"module {module} has no layer in perfbench/layers.py")
    return LAYER_OF[key]


def self_time_by_layer(stats: dict, src_root: Path) -> dict[str, float]:
    """Sum cProfile self time (``cProfile.Profile.stats``) per layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, self_s, _ct, _callers) in stats.items():
        totals[layer_of(module_of(filename, src_root))] += self_s
    return totals


def shares(self_s: dict[str, float]) -> dict[str, float]:
    """Each layer's fraction of the total self time."""
    total = sum(self_s.values())
    if total <= 0:
        raise ValueError("profile recorded no self time")
    return {layer: value / total for layer, value in self_s.items()}
