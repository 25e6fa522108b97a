"""Target flapping gait for the armwing fit.

The reference gait prescribes the shoulder flapping angle and the elbow
folding angle over one wingbeat of phase phi in [0, 2*pi):

* shoulder: a plain sinusoid, amplitude_deg * sin(phi) + offset_deg,
* elbow: a skewed sinusoid built from the phase of the complex point
  1 + skew * exp(i*(phi + phase_lead)); the arctangent form below gives a
  waveform that falls (wing expanding) faster than it rises (retraction),
  with gain_deg_per_rad degrees per radian of that inner angle.

Both functions return degrees; phases are radians.  The inner arctangent
works in radians; its gain is therefore a per-radian constant, kept as a
named field so a different convention is a one-line change.

The elbow convention is anatomical flexion: smaller values mean a more
extended (expanded) wing.  Over the default cycle the elbow is most
extended early in the downstroke and most folded during the upstroke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaitShape",
    "TargetGait",
    "target_shoulder",
    "target_elbow",
    "sample_targets",
    "phase_grid",
    "wrap_phase",
    "DOWNSTROKE_START",
    "DOWNSTROKE_END",
    "TARGET_ANGLE_MAX_DEG",
]

TWO_PI = 2.0 * math.pi

# The downstroke is the half cycle where the shoulder target decreases from
# its +25 deg peak toward its -45 deg trough.
DOWNSTROKE_START = math.pi / 2.0
DOWNSTROKE_END = 3.0 * math.pi / 2.0

# The largest target angle magnitude a fit takes, degrees: thousands of
# turns, far past any wingbeat, and small enough that a fit's squared angle
# errors, their sums and their gradients stay finite.
TARGET_ANGLE_MAX_DEG = 1e6


@dataclass(frozen=True)
class GaitShape:
    """Constants of the target gait waveforms (degrees and radians)."""

    shoulder_amplitude_deg: float = 35.0
    shoulder_offset_deg: float = -10.0
    elbow_skew: float = 0.5
    elbow_phase_lead_rad: float = 2.0 * math.pi / 3.0
    elbow_gain_deg_per_rad: float = 45.0
    elbow_offset_deg: float = 120.0


DEFAULT_SHAPE = GaitShape()


def wrap_phase(phi):
    """Reduce a phase to [0, 2*pi) so exact multiples of 2*pi map to 0."""
    wrapped = np.fmod(np.asarray(phi, dtype=float), TWO_PI)
    return np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)


def target_shoulder(phi, shape: GaitShape = DEFAULT_SHAPE):
    """Target shoulder angle, degrees, at wingbeat phase ``phi`` (radians)."""
    u = wrap_phase(phi)
    out = shape.shoulder_amplitude_deg * np.sin(u) + shape.shoulder_offset_deg
    return float(out) if np.ndim(phi) == 0 else out


def target_elbow(phi, shape: GaitShape = DEFAULT_SHAPE):
    """Target elbow angle, degrees, at wingbeat phase ``phi`` (radians)."""
    k = shape.elbow_skew
    u = wrap_phase(phi) + shape.elbow_phase_lead_rad
    inner = np.arctan(-k * np.sin(u) / (1.0 + k * np.cos(u)))
    out = -k * inner * shape.elbow_gain_deg_per_rad + shape.elbow_offset_deg
    return float(out) if np.ndim(phi) == 0 else out


def phase_grid(samples: int) -> np.ndarray:
    """Uniform grid phi_k = 2*pi*k/N, k = 0..N-1, strictly inside [0, 2*pi).

    Built as 2*pi * (k/N) so that grids whose sample counts divide each
    other share bit-identical phases.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return TWO_PI * (np.arange(samples, dtype=float) / samples)


@dataclass(frozen=True)
class TargetGait:
    """Sampled target gait on a uniform phase grid.

    ``phi`` is radians; the angle series are degrees.  Instances may come
    from the analytic waveforms (sample_targets) or from a trajectory file,
    in which case ``shape`` is None.
    """

    phi: np.ndarray
    shoulder_deg: np.ndarray
    elbow_deg: np.ndarray
    shape: GaitShape | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (len(self.phi) == len(self.shoulder_deg) == len(self.elbow_deg)):
            raise ValueError("target series lengths differ")
        diffs = np.diff(self.phi)
        if len(self.phi) and (
            np.any(diffs <= 0.0) or self.phi[0] < 0.0 or self.phi[-1] >= TWO_PI
        ):
            raise ValueError("target phases must be strictly increasing in [0, 2*pi)")

    def __len__(self) -> int:
        return len(self.phi)


def sample_targets(samples: int, shape: GaitShape = DEFAULT_SHAPE) -> TargetGait:
    """Sample both target waveforms on the shared uniform grid."""
    phi = phase_grid(samples)
    return TargetGait(
        phi=phi,
        shoulder_deg=target_shoulder(phi, shape),
        elbow_deg=target_elbow(phi, shape),
        shape=shape,
    )
