"""Hinge material models and strain budget screening.

Flexure hinges printed in rubber-like blends survive a bounded working
strain.  This module loads the material database (Shore hardness band,
elongation-at-break band, and optional incompressible Mooney-Rivlin
constants fitted from uniaxial test data) and checks a design's peak
hinge strain, scaled by a safety factor, against the weakest published
elongation at break.

Stress values are nominal (first Piola-Kirchhoff) in MPa; stretch is the
uniaxial stretch ratio lambda = 1 + strain.  The hinge loads here are
dominantly stretching/bending of thin strips, so the uniaxial closed form
is used as a screen; full continuum FEA is out of scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    MissingMaterialModel,
    NonPositiveStretch,
    SchemaError,
    UnknownMaterial,
    VersionError,
)
from .io import _known, _number

__all__ = [
    "MooneyRivlin",
    "MaterialSpec",
    "StrainBudget",
    "mooney_rivlin_stress",
    "mooney_rivlin_uniaxial",
    "strain_budget_check",
    "load_materials",
    "get_material",
    "default_materials_path",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class MooneyRivlin:
    """Two-parameter incompressible Mooney-Rivlin solid (uniaxial form)."""

    c10_mpa: float
    c01_mpa: float
    poisson: float


@dataclass(frozen=True)
class MaterialSpec:
    """One printable hinge material: hardness and rupture bands plus an
    optional fitted hyperelastic model."""

    name: str
    shore_a: tuple[float, float]
    elongation_break_pct: tuple[float, float]
    description: str = ""
    model: MooneyRivlin | None = None

    @property
    def min_elongation_break_pct(self) -> float:
        return self.elongation_break_pct[0]


@dataclass(frozen=True)
class StrainBudget:
    """Outcome of a hinge strain check against one material."""

    material: str
    strain_pct: float
    safety_factor: float
    demand_pct: float
    capacity_pct: float
    margin_pct: float
    passed: bool


def mooney_rivlin_stress(stretch, c10_mpa: float, c01_mpa: float):
    """Uniaxial nominal stress of an incompressible Mooney-Rivlin solid.

    sigma(lambda) = 2 (lambda - lambda^-2) (C10 + C01 / lambda), MPa.
    Accepts a scalar or array stretch; every entry must be > 0.  The
    undeformed state gives exactly zero stress.
    """
    lam = np.asarray(stretch, dtype=float)
    if np.any(~(lam > 0.0)):
        raise NonPositiveStretch(
            f"stretch ratio must be > 0, got {float(np.min(lam))!r}"
        )
    sigma = 2.0 * (lam - lam**-2) * (c10_mpa + c01_mpa / lam)
    if np.ndim(stretch) == 0:
        return float(sigma)
    return sigma


def mooney_rivlin_uniaxial(stretch, mat: MaterialSpec):
    """Nominal stress for a named material; requires fitted constants.

    Raises MissingMaterialModel when the database entry ships only the
    hardness/elongation bands, and NonPositiveStretch for stretch <= 0.
    """
    if mat.model is None:
        raise MissingMaterialModel(f"material {mat.name!r} has no hyperelastic model")
    return mooney_rivlin_stress(stretch, mat.model.c10_mpa, mat.model.c01_mpa)


def strain_budget_check(
    strain_pct: float, mat: MaterialSpec, safety_factor: float = 1.0
) -> StrainBudget:
    """Check peak hinge strain (percent) against the material's weakest
    published elongation at break.

    The demand is strain * safety_factor; the check passes when the demand
    does not exceed the capacity.  ``margin_pct`` is capacity - demand, so
    a failing check reports a negative margin.
    """
    if not safety_factor >= 1.0:
        raise ValueError(f"safety factor must be >= 1, got {safety_factor!r}")
    if not strain_pct >= 0.0:
        raise ValueError(f"strain must be >= 0 percent, got {strain_pct!r}")
    demand = strain_pct * safety_factor
    capacity = mat.min_elongation_break_pct
    margin = capacity - demand
    return StrainBudget(
        material=mat.name,
        strain_pct=float(strain_pct),
        safety_factor=float(safety_factor),
        demand_pct=float(demand),
        capacity_pct=float(capacity),
        margin_pct=float(margin),
        passed=demand <= capacity,
    )


# The keys a database entry and its model may hold.
_ENTRY_KEYS = frozenset(("name", "shore_a", "elongation_break_pct", "description", "model"))
_MODEL_KEYS = frozenset(("type", "c10_mpa", "c01_mpa", "poisson"))


def default_materials_path() -> Path:
    return Path(str(resources.files("armwing").joinpath("data/materials.json")))


def load_materials(path: str | Path | None = None) -> dict[str, MaterialSpec]:
    """Load a material database; defaults to the packaged one.

    Returns an insertion-ordered name -> MaterialSpec mapping.  Raises
    VersionError on a missing/unsupported format_version and SchemaError
    on a file that is not a JSON object or on malformed entries, unknown
    keys in an entry or its model included.
    """
    src = Path(path) if path is not None else default_materials_path()
    try:
        doc = json.loads(src.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise SchemaError(str(src), f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(str(src), f"top level must be an object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:  # True == 1
        raise VersionError(
            f"unsupported materials format_version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    out: dict[str, MaterialSpec] = {}
    entries = doc.get("materials", [])
    if not isinstance(entries, list):
        raise SchemaError("materials", f"must be a list, not {type(entries).__name__}")
    for i, entry in enumerate(entries):
        where = f"materials[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, f"must be an object, not {type(entry).__name__}")
        _known(entry, _ENTRY_KEYS, where)
        try:
            name = entry["name"]
            shore, brk = (_band(entry[key], where, key)
                          for key in ("shore_a", "elongation_break_pct"))
        except (KeyError, TypeError) as exc:
            raise SchemaError(where, f"bad entry: {exc}") from None
        if not isinstance(name, str):
            raise SchemaError(f"{where}.name", f"must be a string, got {name!r}")
        if not 0.0 <= shore[0] <= shore[1] <= 100.0:
            raise SchemaError(f"{where}.shore_a",
                              f"need 0 <= low <= high <= 100, got {list(shore)}")
        if not brk[0] > 0.0 or brk[1] < brk[0]:
            raise SchemaError(where, "elongation band must be positive, low <= high")
        if name in out:
            raise SchemaError(where, f"duplicate material {name!r}")
        description = entry.get("description", "")
        if not isinstance(description, str):
            raise SchemaError(f"{where}.description", f"must be a string, got {description!r}")
        model = None
        raw_model = entry.get("model")
        if raw_model is not None:
            if not isinstance(raw_model, dict):
                raise SchemaError(f"{where}.model",
                                  f"must be an object, not {type(raw_model).__name__}")
            kind = _known(raw_model, _MODEL_KEYS, f"{where}.model").get("type")
            if kind != "mooney-rivlin":
                raise SchemaError(f"{where}.model", f"unknown model type {kind!r}")
            try:
                model = MooneyRivlin(*(_number(raw_model[key], f"{where}.model", key)
                                       for key in ("c10_mpa", "c01_mpa", "poisson")))
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"{where}.model", f"bad constants: {exc}") from None
            if not 0.0 < model.poisson <= 0.5:
                raise SchemaError(
                    f"{where}.model.poisson", "Poisson ratio must be in (0, 0.5]"
                )
        out[name] = MaterialSpec(
            name=name,
            shore_a=shore,
            elongation_break_pct=brk,
            description=description,
            model=model,
        )
    return out


def _band(values, where: str, key: str) -> tuple[float, float]:
    """A [low, high] band of finite numbers at ``where.key``."""
    if not isinstance(values, list) or len(values) != 2:
        raise SchemaError(f"{where}.{key}", "must be a list of 2 numbers")
    return _number(values[0], where, key), _number(values[1], where, key)


def get_material(db: dict[str, MaterialSpec], name: str) -> MaterialSpec:
    """Case-sensitive lookup with a domain error on a miss."""
    try:
        return db[name]
    except KeyError:
        known = ", ".join(db)
        raise UnknownMaterial(f"unknown material {name!r} (have: {known})") from None
