"""Host-speed probe: a fixed computation, none of it the program's, timed
beside every workload so that runs made at different host speeds compare.

The benchmark runs on two vCPUs of a shared host whose speed follows the
load of its other tenants.  The same batch_bfs chunk took 0.6 s per call in
one quarter of an hour and 1.1 s in the next, and thread CPU time followed
the wall time, so the time was lost to a slower CPU, not to waiting (see
README.md).  Each run therefore also times this probe and puts its timings
on the scale of a reference host: a time is multiplied by
``REFERENCE_S / median probe time``.  The raw figures stay in the report.

The probe does the two kinds of work the workloads do: sparse-times-dense
products over a bit block, as the sweeps do, and building a dict keyed by
``(node, time)`` tuples, as the readout does.  It calls nothing under
``src/``, so no change to the program moves it, and it runs with the
garbage collector off, so the size of the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import scipy.sparse

#: A round figure near the probe's median in the quiet state of the 2-vCPU
#: host the benchmark was tuned on (Python 3.11.7, numpy 2.4.6, scipy
#: 1.17.1).  Only the scale of the reported times depends on it.
REFERENCE_S = 0.010


class HostProbe:
    """Times a fixed computation; :meth:`factor` turns raw times into
    reference-host times."""

    def __init__(self):
        nodes, columns, keys = 3000, 64, 40_000  # about 10 ms a probe
        rng = np.random.default_rng(0)
        self._matrix = scipy.sparse.random(
            nodes, nodes, density=8.0 / nodes, format="csr", random_state=rng
        )
        self._matrix.data[:] = 1.0
        self._matrix = self._matrix.astype(np.int32)
        self._seed_block = (rng.random((nodes, columns)) < 0.01).astype(np.int32)
        self._keys = [(i % nodes, i // nodes) for i in range(keys)]
        self.samples: list[float] = []

    def _work(self) -> int:
        block = self._seed_block
        for _ in range(6):
            block = ((self._matrix @ block) > 0).astype(np.int32) | block
        hits = np.nonzero(block[:, 0])[0].tolist()
        answer = {key: i for i, key in enumerate(self._keys)}
        return len(answer) + len(hits)

    def sample(self) -> None:
        """Time one run of the probe."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Multiply a raw time by this to get its reference-host time."""
        return REFERENCE_S / self.median_s()
