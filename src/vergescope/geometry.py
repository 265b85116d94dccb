"""Binocular vergence geometry.

Head-fixed right-handed frame throughout: x points right, y up, z forward
along the optical axis. Positions are meters, angles are degrees at the API
boundary (radians internally). All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError

__all__ = [
    "Vec3",
    "GazeRay",
    "EyeConfig",
    "TargetSpec",
    "vergence_angle",
    "vergence_angles",
    "ideal_vergence",
    "to_diopters",
    "forward_gaze",
]

_NORM_TOL = 1e-9
# The smallest positive normal double; a smaller sum of squares has lost precision.
_MIN_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class Vec3:
    """3-component vector: direction components or a position in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise DegenerateInputError(f"non-finite vector component: {self!r}")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        """The unit vector along this one; raises DegenerateInputError for an all-zero vector.

        A vector whose sum of squares is subnormal or zero (every component
        below about 1.5e-154) or overflows (a component above about 1.3e154)
        is first divided by its largest absolute component; every other
        vector is divided by ``norm()`` as it is.
        """
        v = self
        squares = v.x * v.x + v.y * v.y + v.z * v.z
        if not _MIN_NORMAL <= squares < math.inf:
            largest = max(abs(v.x), abs(v.y), abs(v.z))
            if largest == 0.0:
                raise DegenerateInputError("cannot normalize a zero-norm vector")
            v = Vec3(v.x / largest, v.y / largest, v.z / largest)
        n = v.norm()
        return Vec3(v.x / n, v.y / n, v.z / n)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class GazeRay:
    """An eye's gaze ray: origin in meters, unit direction after construction."""

    origin: Vec3
    direction: Vec3

    def __post_init__(self):
        d = self.direction.normalized()
        object.__setattr__(self, "direction", d)
        assert abs(d.norm() - 1.0) < _NORM_TOL


@dataclass(frozen=True)
class EyeConfig:
    """Eye-center placement; defaults to eyes on the x axis around the origin."""

    ipd: float
    left_center: Vec3 = field(default=None)  # type: ignore[assignment]
    right_center: Vec3 = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (self.ipd > 0.0) or not math.isfinite(self.ipd):
            raise DomainError(f"ipd must be positive and finite, got {self.ipd}")
        if self.left_center is None:
            object.__setattr__(self, "left_center", Vec3(-self.ipd / 2.0, 0.0, 0.0))
        if self.right_center is None:
            object.__setattr__(self, "right_center", Vec3(self.ipd / 2.0, 0.0, 0.0))
        sep = (self.left_center - self.right_center).norm()
        if abs(sep - self.ipd) > _NORM_TOL:
            raise DomainError(
                f"eye centers are {sep} m apart but ipd is {self.ipd} m"
            )

    @property
    def cyclopean(self) -> Vec3:
        return (self.left_center + self.right_center).scaled(0.5)


@dataclass(frozen=True)
class TargetSpec:
    """A fixation target: position plus its nominal depth in meters and diopters."""

    position: Vec3
    depth_m: float
    depth_d: float

    def __post_init__(self):
        if not (self.depth_m > 0.0):
            raise DomainError(f"depth_m must be positive, got {self.depth_m}")
        if abs(self.depth_d - 1.0 / self.depth_m) > _NORM_TOL:
            raise DomainError(
                f"depth_d={self.depth_d} inconsistent with 1/depth_m={1.0 / self.depth_m}"
            )

    @classmethod
    def midline(cls, depth_m: float) -> "TargetSpec":
        """Target straight ahead on the optical axis at the given depth."""
        if not (depth_m > 0.0):
            raise DomainError(f"depth_m must be positive, got {depth_m}")
        return cls(Vec3(0.0, 0.0, depth_m), depth_m, 1.0 / depth_m)

    @classmethod
    def at_azimuth(cls, depth_m: float, azimuth_deg: float) -> "TargetSpec":
        """Target at the given eye-to-target distance, rotated right by azimuth."""
        if not (depth_m > 0.0):
            raise DomainError(f"depth_m must be positive, got {depth_m}")
        a = math.radians(azimuth_deg)
        pos = Vec3(depth_m * math.sin(a), 0.0, depth_m * math.cos(a))
        return cls(pos, depth_m, 1.0 / depth_m)


def vergence_angles(l_dir: np.ndarray, r_dir: np.ndarray) -> np.ndarray:
    """Angles in degrees between paired rows of two (n, 3) direction arrays.

    Each angle is the arccosine of the row pair's normalized dot product,
    clipped to [-1, 1]. A row with an all-zero or NaN vector gives NaN. A row
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
        cos = np.einsum("ij,ij->i", l_dir, r_dir) / norms
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
# finite sums of squares and a finite dot product, so ``_vergence_angle_pair``
# needs no rescale.
_PAIR_NORM_FLOOR = 2.0**-510
_PAIR_NORM_LIMIT = 2.0**510


def _vergence_angle_pair(l_dir: Sequence[float], r_dir: Sequence[float]) -> float:
    """``vergence_angles`` of one pair of 3-component sequences: the same bits, or NaN where it gives NaN.

    The steps whose rounding order numpy picks stay numpy calls on the
    layout ``vergence_angles`` sees for one row: the sums of squares, the
    einsum dot product and the arccosine. The square roots, the product of
    the norms, the division, the clip and the conversion to degrees are
    single IEEE operations on Python floats. A pair with a NaN, infinite,
    overflowing, zero or very short vector goes to ``vergence_angles`` itself.
    """
    if not (
        _PAIR_NORM_FLOOR < math.hypot(*l_dir) < _PAIR_NORM_LIMIT
        and _PAIR_NORM_FLOOR < math.hypot(*r_dir) < _PAIR_NORM_LIMIT
    ):
        return float(vergence_angles(np.array([l_dir], dtype=float), np.array([r_dir], dtype=float))[0])
    pair = np.array((l_dir, r_dir), dtype=float)
    sl, sr = np.add.reduce(pair * pair, axis=1).tolist()
    # Both sums of squares are normal, so each norm is at least 2**-511 and
    # their product cannot underflow to zero.
    cos = float(np.einsum("ij,ij->i", pair[:1], pair[1:])[0]) / (math.sqrt(sl) * math.sqrt(sr))
    return float(np.arccos(min(max(cos, -1.0), 1.0))) * (180.0 / math.pi)


def vergence_angle(left_dir: Vec3, right_dir: Vec3, *, project_horizontal: bool = False) -> float:
    """Angle in degrees between the two eyes' gaze direction vectors.

    The one-pair form of :func:`vergence_angles`, the kernel ``GazeSeries``
    uses, so both give the same bits for the same vectors; it skips the array
    kernel's per-call overhead, and ``DepthStream`` uses the same one-pair
    body for a push of one row.
    ``project_horizontal=True`` zeroes the vertical components first,
    measuring the angle in the horizontal plane only. Result is in [0, 180],
    symmetric in its arguments, and invariant to positive rescaling of either
    vector. Raises DegenerateInputError only when a vector's components are
    all zero; a tiny non-zero vector gets the kernel's rescaled angle.
    """
    if project_horizontal:
        left_dir = Vec3(left_dir.x, 0.0, left_dir.z)
        right_dir = Vec3(right_dir.x, 0.0, right_dir.z)
    if not any(left_dir.as_tuple()) or not any(right_dir.as_tuple()):
        raise DegenerateInputError("vergence_angle requires nonzero gaze vectors")
    return _vergence_angle_pair(left_dir.as_tuple(), right_dir.as_tuple())


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


def _rotate_y(v: Vec3, angle_rad: float) -> Vec3:
    # Positive angle turns the forward (+z) axis toward +x, i.e. rightward.
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return Vec3(c * v.x + s * v.z, v.y, -s * v.x + c * v.z)


def forward_gaze(target: TargetSpec, eyes: EyeConfig, head_yaw: float = 0.0) -> tuple[GazeRay, GazeRay]:
    """Ideal gaze rays for both eyes fixating ``target``.

    The head (and with it both eye centers) is rotated by ``head_yaw`` degrees
    about the vertical axis through the cyclopean point; each returned ray
    then points from the rotated eye center to the target. For a midline
    target with the head facing it, the vergence angle of the pair equals
    ``ideal_vergence`` exactly.
    """
    yaw = math.radians(head_yaw)
    cyc = eyes.cyclopean
    rays = []
    for center in (eyes.left_center, eyes.right_center):
        rotated = _rotate_y(center - cyc, yaw) + cyc
        to_target = target.position - rotated
        if to_target.norm() == 0.0:
            raise DegenerateInputError("target coincides with an eye center")
        rays.append(GazeRay(rotated, to_target))
    return rays[0], rays[1]
