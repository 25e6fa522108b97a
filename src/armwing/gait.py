"""Target flapping gait for the armwing fit.

The reference gait prescribes the shoulder flapping angle and the elbow
folding angle over one wingbeat of phase phi in [0, 2*pi):

* shoulder: a plain sinusoid, amplitude_deg * sin(phi) + offset_deg,
* elbow: a skewed sinusoid built from the phase of the complex point
  1 + skew * exp(i*(phi + phase_lead)); the arctangent form below gives a
  waveform that falls (wing expanding) faster than it rises (retraction),
  with ELBOW_GAIN_DEG_PER_RAD degrees per radian of that inner angle.

Both functions return degrees; phases are radians.  The inner arctangent
works in radians; its gain is therefore a per-radian constant, kept as a
named constant so a different convention is a one-line change.  The
waveform constants are the one gait the package is built around; a
different target gait enters as a target CSV (io.targets_from_trajectory).

The elbow convention is anatomical flexion: smaller values mean a more
extended (expanded) wing.  Over the default cycle the elbow is most
extended early in the downstroke and most folded during the upstroke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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

# The target waveforms' constants (degrees and radians).
SHOULDER_AMPLITUDE_DEG = 35.0
SHOULDER_OFFSET_DEG = -10.0
ELBOW_SKEW = 0.5
ELBOW_PHASE_LEAD_RAD = 2.0 * math.pi / 3.0
ELBOW_GAIN_DEG_PER_RAD = 45.0
ELBOW_OFFSET_DEG = 120.0


def wrap_phase(phi):
    """Reduce a phase to [0, 2*pi) so exact multiples of 2*pi map to 0."""
    wrapped = np.fmod(np.asarray(phi, dtype=float), TWO_PI)
    return np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)


def target_shoulder(phi):
    """Target shoulder angle, degrees, at wingbeat phase ``phi`` (radians)."""
    u = wrap_phase(phi)
    out = SHOULDER_AMPLITUDE_DEG * np.sin(u) + SHOULDER_OFFSET_DEG
    return float(out) if np.ndim(phi) == 0 else out


def target_elbow(phi):
    """Target elbow angle, degrees, at wingbeat phase ``phi`` (radians)."""
    k = ELBOW_SKEW
    u = wrap_phase(phi) + ELBOW_PHASE_LEAD_RAD
    inner = np.arctan(-k * np.sin(u) / (1.0 + k * np.cos(u)))
    out = -k * inner * ELBOW_GAIN_DEG_PER_RAD + ELBOW_OFFSET_DEG
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
    from the analytic waveforms (sample_targets) or from a trajectory file.
    """

    phi: np.ndarray
    shoulder_deg: np.ndarray
    elbow_deg: np.ndarray

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


def sample_targets(samples: int) -> TargetGait:
    """Sample both target waveforms on the shared uniform grid."""
    phi = phase_grid(samples)
    return TargetGait(phi=phi, shoulder_deg=target_shoulder(phi), elbow_deg=target_elbow(phi))
