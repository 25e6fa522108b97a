"""Closed-form planar four-bar kinematics.

Conventions used throughout the toolkit:

* angles are radians internally, measured counterclockwise from the body
  +x axis; degrees appear only at I/O boundaries,
* the four-bar is placed with its crank pivot A at the origin and its
  rocker pivot D at (ground, 0),
* ``branch`` selects one of the two circle intersection solutions.  With
  B the crank pin and C the coupler/rocker pin, the open branch is the
  solution with cross(D - B, C - B) > 0; the crossed branch is the other
  one.  The branch is always explicit, never inferred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveLength, NotAssemblable, SingularConfiguration

__all__ = [
    "FourBar",
    "FourBarPose",
    "solve_fourbar",
    "circle_circle",
    "COLLINEAR_TOL_RAD",
]

# Collinearity tolerance for branch-ambiguous configurations, radians.
COLLINEAR_TOL_RAD = 1e-9

BRANCH_SIGNS = {"open": 1.0, "crossed": -1.0}


@dataclass(frozen=True)
class FourBar:
    """Link lengths of a planar four-bar, millimetres, plus assembly branch.

    ``ground_angle`` orients the ground segment A to D in the body frame
    (radians); the crank pivot A stays at the origin, so the rocker pivot
    sits at ground * (cos, sin) of that angle.
    """

    ground: float
    crank: float
    coupler: float
    rocker: float
    ground_angle: float = 0.0
    branch: str = "open"

    def __post_init__(self):
        for name in ("ground", "crank", "coupler", "rocker"):
            value = getattr(self, name)
            if not value > 0.0:
                raise NonPositiveLength(f"four-bar {name} length {value!r} must be > 0")
        if self.branch not in BRANCH_SIGNS:
            raise ValueError(f"branch must be 'open' or 'crossed', got {self.branch!r}")


@dataclass(frozen=True)
class FourBarPose:
    """Solved configuration of a four-bar at one crank angle.

    ``theta_coupler`` and ``theta_rocker`` are absolute link directions
    (B to C, D to C).  ``transmission_angle`` is the acute angle between
    coupler and rocker, folded into (0, pi/2].  ``residual`` is the loop
    closure error re-evaluated from the returned angles, millimetres.
    """

    theta_in: float
    theta_coupler: float
    theta_rocker: float
    crank_pin: tuple[float, float]
    coupler_pin: tuple[float, float]
    transmission_angle: float
    residual: float


def circle_circle(c1, r1, c2, r2, sign):
    """Intersect two circles; return the intersection picked by ``sign``.

    ``c1`` and ``c2`` are arrays shaped (..., 2).  Returns (point, h, d)
    where ``h`` is the half-chord height (zero exactly at tangency) and
    ``d`` the centre distance.  Where no real intersection exists the
    returned point is NaN; callers decide whether that is an error.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    delta = c2 - c1
    d = np.hypot(delta[..., 0], delta[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        h_sq = r1 * r1 - a * a
        h = np.sqrt(np.where(h_sq >= 0.0, h_sq, np.nan))
        ux = delta[..., 0] / d
        uy = delta[..., 1] / d
    px = c1[..., 0] + a * ux - sign * h * uy
    py = c1[..., 1] + a * uy + sign * h * ux
    return np.stack([px, py], axis=-1), h, d


def assembly_margin_and_transmission(d, r1, r2):
    """(margin, transmission) of circles of radii r1, r2 with centres d apart.

    The margin (mm) is positive when they cannot meet; the transmission
    angle between the radii at the intersection is folded into [0, pi/2].
    """
    margin = np.maximum(d - (r1 + r2), np.abs(r1 - r2) - d)
    cos_mu = (r1 * r1 + r2 * r2 - d * d) / (2.0 * r1 * r2)
    mu = np.arccos(np.clip(cos_mu, -1.0, 1.0))
    return margin, np.minimum(mu, np.pi - mu)


def assembly_margin_and_transmission_tangent(d, r1, r2, dd, dr1, dr2):
    """Directional derivatives of assembly_margin_and_transmission along the
    tangents dd, dr1, dr2 of its arguments.

    Each ``abs``, ``maximum``, ``clip`` and ``minimum`` of the primal takes
    the derivative of the branch it selected; where the clip is active the
    transmission's derivative is 0.
    """
    dmargin = np.where(
        d - (r1 + r2) >= np.abs(r1 - r2) - d,
        dd - dr1 - dr2,
        np.sign(r1 - r2) * (dr1 - dr2) - dd,
    )
    cos_mu = (r1 * r1 + r2 * r2 - d * d) / (2.0 * r1 * r2)
    dcos = (r1 * dr1 + r2 * dr2 - d * dd) / (r1 * r2) - cos_mu * (dr1 / r1 + dr2 / r2)
    inside = np.abs(cos_mu) < 1.0
    sin_mu = np.sqrt(np.where(inside, 1.0 - cos_mu * cos_mu, 1.0))
    dmu = np.where(inside, -dcos / sin_mu, 0.0)
    mu = np.arccos(np.clip(cos_mu, -1.0, 1.0))
    return dmargin, np.where(mu <= np.pi - mu, dmu, -dmu)


def solve_fourbar(fourbar: FourBar, theta_in):
    """Solve the four-bar at crank angle ``theta_in`` (radians).

    ``theta_in`` may be a scalar or an ndarray; the returned pose carries
    matching scalars or arrays.  Raises NotAssemblable when the coupler and
    rocker circles do not intersect, and SingularConfiguration when they
    are tangent within COLLINEAR_TOL_RAD (coupler and rocker collinear, so
    the branch is ambiguous).
    """
    theta = np.asarray(theta_in, dtype=float)
    scalar = theta.ndim == 0

    pivot_d = np.zeros(theta.shape + (2,))
    pivot_d[..., 0] = fourbar.ground * np.cos(fourbar.ground_angle)
    pivot_d[..., 1] = fourbar.ground * np.sin(fourbar.ground_angle)

    crank_pin = np.stack(
        [fourbar.crank * np.cos(theta), fourbar.crank * np.sin(theta)], axis=-1
    )
    sign = BRANCH_SIGNS[fourbar.branch]
    coupler_pin, h, d = circle_circle(
        crank_pin, fourbar.coupler, pivot_d, fourbar.rocker, sign
    )

    margin, transmission = assembly_margin_and_transmission(
        d, fourbar.coupler, fourbar.rocker
    )
    bad = ~np.isfinite(coupler_pin[..., 0])
    if np.any(bad):
        phi = float(np.atleast_1d(theta)[np.atleast_1d(bad)][0])
        gap = float(np.atleast_1d(margin)[np.atleast_1d(bad)][0])
        raise NotAssemblable(
            f"coupler/rocker circles do not intersect (gap {gap:.6g} mm)", phi=phi
        )

    collinear = transmission < COLLINEAR_TOL_RAD
    if np.any(collinear):
        phi = float(np.atleast_1d(theta)[np.atleast_1d(collinear)][0])
        raise SingularConfiguration(
            "coupler and rocker collinear; open/crossed branches coincide", phi=phi
        )

    theta_coupler = np.arctan2(
        coupler_pin[..., 1] - crank_pin[..., 1], coupler_pin[..., 0] - crank_pin[..., 0]
    )
    theta_rocker = np.arctan2(
        coupler_pin[..., 1] - pivot_d[..., 1], coupler_pin[..., 0] - pivot_d[..., 0]
    )

    # Independent loop-closure certificate: A + crank + coupler - rocker - D.
    loop_x = (
        fourbar.crank * np.cos(theta)
        + fourbar.coupler * np.cos(theta_coupler)
        - fourbar.rocker * np.cos(theta_rocker)
        - fourbar.ground * np.cos(fourbar.ground_angle)
    )
    loop_y = (
        fourbar.crank * np.sin(theta)
        + fourbar.coupler * np.sin(theta_coupler)
        - fourbar.rocker * np.sin(theta_rocker)
        - fourbar.ground * np.sin(fourbar.ground_angle)
    )
    residual = np.hypot(loop_x, loop_y)

    if scalar:
        return FourBarPose(
            theta_in=float(theta),
            theta_coupler=float(theta_coupler),
            theta_rocker=float(theta_rocker),
            crank_pin=(float(crank_pin[0]), float(crank_pin[1])),
            coupler_pin=(float(coupler_pin[0]), float(coupler_pin[1])),
            transmission_angle=float(transmission),
            residual=float(residual),
        )
    return FourBarPose(
        theta_in=theta,
        theta_coupler=theta_coupler,
        theta_rocker=theta_rocker,
        crank_pin=crank_pin,
        coupler_pin=coupler_pin,
        transmission_angle=transmission,
        residual=residual,
    )
