"""Speed probes: fixed amounts of CPU work, independent of hccm.

The host shares its cores with other tenants, and the speed it gives a core
drifts by 20 % and more over minutes. The benchmark runs a probe between
operations and scales each operation's CPU time by the probe's CPU time over
the same run, so that drift of the host's speed cancels while a change to the
program's own cost does not.

Work of different kinds slows by different amounts when the host is busy
(array streaming less than interpreted code), so each workload has a probe of
the kind of work it does most. Each probe takes about 0.2 s of CPU on an idle
2.1 GHz Xeon core and leaves no large allocation behind.
"""

from __future__ import annotations

import io

import numpy as np

_CHOLESKY = np.array([[1.0, 0.0], [0.3, 0.9]])


def bulk() -> float:
    """Array streaming, like sampling and reducing one full-scale segment."""
    rng = np.random.default_rng(12345)
    digest = 0.0
    for _ in range(10):
        z = rng.standard_normal((458_000, 2)) @ _CHOLESKY.T
        digest += float(np.dot(z[:, 0], z[:, 1])) + float(z.sum())
    return digest


def small() -> float:
    """Many numpy calls on 4x4 matrices, like the state algebra of small segments."""
    rng = np.random.default_rng(12345)
    digest = 0.0
    for _ in range(20_000):
        m = rng.standard_normal((4, 4))
        digest += float(np.linalg.eigvalsh(m + m.T)[0])
    return digest


def text() -> float:
    """Rows of floats written as text and parsed back, like the record files."""
    values = np.random.default_rng(12345).standard_normal((40_000, 2))
    out = io.StringIO()
    for v1, v2 in values.tolist():
        out.write(f"7,{0.25!r},{v1!r},{v2!r}\n")
    rows = []
    for raw in io.StringIO(out.getvalue()):
        parts = raw.strip().split(",")
        rows.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])))
    return float(np.array(rows)[:, 2:].sum())
