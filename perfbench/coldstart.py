"""One cold start of a workload, in a fresh interpreter started by ``run.py``.

    coldstart.py WORKLOAD

Imports qheis and builds and orients every presentation the workload uses,
with the calibration sampler running from before the import.  Prints one JSON
line: the import time in reference seconds, the seconds the sampler's chunks
took, and the slowdown they showed.  ``run.py`` times the whole process from
outside and turns its wall time into reference seconds with these.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from calibration import Sampler

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

with Sampler() as sampler:
    t0 = perf_counter()
    import qheis  # noqa: E402,F401
    t1 = perf_counter()
    import workloads  # noqa: E402
    from tracing import NULL  # noqa: E402

    workloads.build_presentations(sys.argv[1], NULL)
    t2 = perf_counter()

print(json.dumps({"import_s": sampler.reference_seconds(t0, t1)[0],
                  "chunks_s": sum(sampler.times),
                  "slowdown": sampler.reference_seconds(t0, t2)[1]}))
