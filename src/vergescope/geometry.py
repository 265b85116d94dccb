"""Binocular vergence geometry.

Head-fixed right-handed frame throughout: x points right, y up, z forward
along the optical axis. Depths are meters and angles are degrees at the API
boundary (radians internally). All functions are pure.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = ["vergence_angle", "vergence_angles", "ideal_vergence", "to_diopters"]

# The smallest positive normal double; a smaller sum of squares has lost precision.
_MIN_NORMAL = 2.0**-1022


def vergence_angles(l_dir: np.ndarray, r_dir: np.ndarray) -> np.ndarray:
    """Angles in degrees between paired rows of two (n, 3) direction arrays.

    Each angle is the arccosine of the row pair's normalized dot product,
    clipped to [-1, 1]. The dot product is summed in one written order,
    ``(l0*r0 + l2*r2) + l1*r1``, so its rounding does not depend on which
    kernel numpy dispatches. A row with an all-zero or NaN vector gives NaN. A row
    of finite, not-all-zero vectors whose norms overflow (components above
    about 1.3e154) or whose sums of squares are subnormal or zero (every
    component below about 1.5e-154) has each vector divided by its largest
    absolute component and is computed again; every other row keeps the bits
    of the unscaled computation.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.linalg.norm's own steps, keeping the sums of squares.
        sl = np.add.reduce(l_dir * l_dir, axis=1)
        sr = np.add.reduce(r_dir * r_dir, axis=1)
        norms = np.sqrt(sl) * np.sqrt(sr)
        dot = (l_dir[:, 0] * r_dir[:, 0] + l_dir[:, 2] * r_dir[:, 2]) + l_dir[:, 1] * r_dir[:, 1]
        cos = dot / norms
        cos = np.clip(cos, -1.0, 1.0)
        out = np.degrees(np.arccos(cos))
    out[(sl == 0.0) | (sr == 0.0)] = np.nan
    rescale = ~np.isfinite(norms) | (sl < _MIN_NORMAL) | (sr < _MIN_NORMAL)
    if rescale.any():
        rescale &= np.isfinite(l_dir).all(axis=1) & np.isfinite(r_dir).all(axis=1)
        rescale &= l_dir.any(axis=1) & r_dir.any(axis=1)
        left, right = l_dir[rescale], r_dir[rescale]
        out[rescale] = vergence_angles(
            left / np.abs(left).max(axis=1, keepdims=True), right / np.abs(right).max(axis=1, keepdims=True)
        )
    return out


# Gaze vectors longer than 2**-510 and shorter than 2**510 have normal,
# finite sums of squares and a finite dot product, so ``vergence_angle``
# needs no rescale.
_PAIR_NORM_FLOOR = 2.0**-510
_PAIR_NORM_LIMIT = 2.0**510


def vergence_angle(l_dir: Sequence[float], r_dir: Sequence[float]) -> float:
    """Angle in degrees between two 3-component gaze directions: ``vergence_angles`` of one row.

    It gives the array kernel's bits, and NaN where the kernel gives NaN (an
    all-zero or NaN vector), without the kernel's per-call overhead;
    ``DepthStream`` uses it for a push of one row. The steps whose rounding
    order numpy picks stay numpy calls on the layout ``vergence_angles`` sees
    for one row: the sums of squares and the arccosine. The dot product, in
    the kernel's written order ``(l0*r0 + l2*r2) + l1*r1``, the square roots,
    the product of the norms, the division, the clip and the conversion to
    degrees are single IEEE operations on Python floats. A pair with a NaN,
    infinite, overflowing, zero or very short vector goes to
    ``vergence_angles`` itself.
    """
    if not (
        _PAIR_NORM_FLOOR < math.hypot(*l_dir) < _PAIR_NORM_LIMIT
        and _PAIR_NORM_FLOOR < math.hypot(*r_dir) < _PAIR_NORM_LIMIT
    ):
        return float(vergence_angles(np.array([l_dir], dtype=float), np.array([r_dir], dtype=float))[0])
    pair = np.array((l_dir, r_dir), dtype=float)
    sl, sr = np.add.reduce(pair * pair, axis=1).tolist()
    (l0, l1, l2), (r0, r1, r2) = pair.tolist()
    # Both sums of squares are normal, so each norm is at least 2**-511 and
    # their product cannot underflow to zero.
    cos = ((l0 * r0 + l2 * r2) + l1 * r1) / (math.sqrt(sl) * math.sqrt(sr))
    return float(np.arccos(min(max(cos, -1.0), 1.0))) * (180.0 / math.pi)


def ideal_vergence(depth_m: float, ipd: float) -> float:
    """Vergence angle in degrees for a midline target at ``depth_m`` meters.

    Isoceles geometry: the two visual axes meet at the target, so the full
    angle is 2*atan(ipd / (2*depth)). Strictly decreasing in depth and
    approaching zero at infinity.
    """
    if not (depth_m > 0.0) or not math.isfinite(depth_m):
        raise DomainError(f"depth_m must be positive and finite, got {depth_m}")
    if not (ipd > 0.0) or not math.isfinite(ipd):
        raise DomainError(f"ipd must be positive and finite, got {ipd}")
    return math.degrees(2.0 * math.atan(ipd / (2.0 * depth_m)))


def to_diopters(depth_m: float) -> float:
    """Convert a depth in meters to diopters (1/m). Its own inverse."""
    if not (depth_m > 0.0) or not math.isfinite(depth_m):
        raise DomainError(f"depth_m must be positive and finite, got {depth_m}")
    return 1.0 / depth_m
