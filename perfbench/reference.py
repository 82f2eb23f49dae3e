"""The reference kernel: a fixed piece of work timed between ops.

On a small shared host the speed of the CPU itself moves with load from
outside the machine: the same op costs up to 1.8x more CPU time in some
seconds than in others, and the speed also wavers from one 10 ms to the
next. The benchmark therefore times this kernel every PROBE_EVERY seconds of
op time and reports each op's cost in units of the kernel's time measured
beside it ("ref"). The
kernel does the kind of work the library's ops do (small complex matrices,
eigenvalues, Python-level dict and list work) on fixed data, and does not
touch the library, so a change to the library moves the numerator only.
"""
from __future__ import annotations

from time import process_time

import numpy as np

#: seconds of op CPU time between two probes; probing every 0.1 s or 0.05 s
#: left the op's 90th-percentile cost in ref wavering by twice as much
PROBE_EVERY = 0.01
#: set-up time is reported in seconds at the host speed where one pass takes this
NOMINAL_PASS_S = 1e-3

# Fixed data: the kernel is part of the instrument, not of the workload.
_rng = np.random.default_rng(20261017)
_Z = _rng.standard_normal((8, 4, 4)) + 1j * _rng.standard_normal((8, 4, 4))
_U = np.linalg.qr(_Z)[0]
_C = _rng.standard_normal((8, 4)) + 1j * _rng.standard_normal((8, 4))
_C /= np.linalg.norm(_C, axis=1, keepdims=True)


def kernel() -> float:
    acc = 0.0
    for i in range(8):
        m = np.kron(_U[i], _U[(i + 1) % 8])
        acc += float(np.linalg.eigvalsh(m + m.conj().T).sum())
        states = np.einsum("ij,j->i", _U[i], _C[i])
        rho = np.outer(states, states.conj())
        acc += float(np.abs(np.trace(rho @ _U[i])) ** 2)
        table = {f"k{j}": j * j for j in range(40)}
        acc += sum(v for k, v in table.items() if k.endswith(("1", "3", "7")))
    return acc


def probe() -> float:
    """CPU seconds of one kernel pass."""
    t0 = process_time()
    kernel()
    return process_time() - t0
