"""Scalar closed forms for the two-mirror cavity, used to check sweep output.

Every matrix of the cavity family is a multiple of I or J, so each design step
reduces to scalar algebra: a quadratic for the filter Riccati equation and a
scalar balance for each Lyapunov equation. The values below are per mode; the
trace of a 2x2 covariance is twice the per-mode value.
"""

from __future__ import annotations

import math


def riccati_root(k1: float, k2: float, kn: float, v2: float = 1.0) -> float:
    """Stabilizing root ``q`` of the scalar filter Riccati equation.

    ``v2`` is the measurement intensity: 1 for the coherent designs, 2 for the
    heterodyne baseline.
    """
    a = -(k1 + k2) / 2.0
    v1 = k1 + k2 * (1.0 + 2.0 * kn)
    b = -2.0 * (a * v2 / k1 + 1.0)
    c = -(v1 * v2 / k1 - 1.0)
    return (-b + math.sqrt(b * b - 4.0 * c)) / 2.0


def cavity_traces(k1: float, k2: float, kn: float) -> dict:
    """Expected ``alg1``, ``alg3`` and ``classical`` traces at one cavity point.

    ``alg3`` is ``None`` where the state transformation does not exist (the
    design then falls back to ``alg1``); ``transformed`` says which case holds.
    """
    q = riccati_root(k1, k2, kn)
    k = math.sqrt(k1) * (q - 1.0)
    a = -(k1 + k2) / 2.0 - k * math.sqrt(k1)
    plant_noise = (math.sqrt(k1) + k) ** 2 + k2 * (1.0 + 2.0 * kn)
    defect = -k * k - 2.0 * a - 1.0
    j_alg1 = -(plant_noise + 1.0 + abs(defect)) / (2.0 * a)
    transformed = a * a > k * k
    j_alg3 = None
    if transformed:
        x = -1.0 / (2.0 * a) if k == 0.0 else (-a - math.sqrt(a * a - k * k)) / (k * k)
        j_alg3 = -(plant_noise + 1.0 / (x * x)) / (2.0 * a)
    return {
        "alg1": 2.0 * j_alg1,
        "alg3": None if j_alg3 is None else 2.0 * j_alg3,
        "classical": 2.0 * riccati_root(k1, k2, kn, v2=2.0),
        "transformed": transformed,
    }
