"""Set-up probe: time from ``import triheat`` to a state ready to step.

Run as ``python3 perfbench/probe.py <backend> <size> <perturb>`` in a
fresh interpreter. It prints the seconds from the import of triheat
through building the initial state with ``shapes.generate``, which
builds the transform tables or validates the mesh. ``size`` is the
bandlimit for the spectral backend and the subdivision count for the
mesh. Nothing but the standard library is imported before the clock
starts.
"""

import sys
import time
from pathlib import Path


def build_state(shapes, backend: str, size: int, perturb: str):
    """A perturbed sphere on the given backend, from triheat's generator."""
    if backend == "spectral":
        return shapes.generate("perturbed", "spectral", bandlimit=size, perturb=perturb)
    return shapes.generate("perturbed", "mesh", subdivisions=size, perturb=perturb)


def main(argv) -> int:
    backend, size, perturb = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from triheat import shapes

    build_state(shapes, backend, size, perturb)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
