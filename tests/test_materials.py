from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from armwing import (
    MissingMaterialModel,
    NonPositiveStretch,
    SchemaError,
    UnknownMaterial,
    VersionError,
)
from armwing.materials import (
    MaterialSpec,
    MooneyRivlin,
    default_materials_path,
    get_material,
    load_materials,
    mooney_rivlin_stress,
    mooney_rivlin_uniaxial,
    strain_budget_check,
)

C10 = 0.3339
C01 = -0.000337


def strain_energy(lam: float, c10: float, c01: float) -> float:
    """Incompressible uniaxial strain energy density, MPa."""
    i1 = lam * lam + 2.0 / lam
    i2 = 2.0 * lam + 1.0 / (lam * lam)
    return c10 * (i1 - 3.0) + c01 * (i2 - 3.0)


def test_undeformed_stress_is_exactly_zero():
    assert mooney_rivlin_stress(1.0, C10, C01) == 0.0


def test_reference_point_for_the_hinge_material():
    sigma = mooney_rivlin_stress(1.43, C10, C01)
    assert sigma == pytest.approx(0.6279419534800373, abs=1e-12)
    assert sigma == pytest.approx(0.628, abs=1e-3)


def test_stress_is_the_energy_derivative():
    # Independent route: differentiate the strain energy numerically and
    # compare against the closed-form nominal stress.
    rng = np.random.default_rng(6)
    h = 1e-6
    for lam in rng.uniform(1.01, 2.5, size=40):
        numeric = (
            strain_energy(lam + h, C10, C01) - strain_energy(lam - h, C10, C01)
        ) / (2.0 * h)
        assert mooney_rivlin_stress(float(lam), C10, C01) == pytest.approx(
            numeric, abs=1e-8
        )


def test_stress_is_monotone_in_tension():
    lam = np.linspace(1.0, 2.5, 400)
    sigma = mooney_rivlin_stress(lam, C10, C01)
    assert np.all(np.diff(sigma) > 0.0)
    assert np.all(sigma[1:] > 0.0)


def test_array_and_scalar_forms_agree():
    lam = np.array([1.0, 1.2, 1.43])
    sigma = mooney_rivlin_stress(lam, C10, C01)
    assert sigma.shape == (3,)
    for k, value in enumerate(lam):
        assert mooney_rivlin_stress(float(value), C10, C01) == sigma[k]


def test_nonpositive_stretch_rejected():
    with pytest.raises(NonPositiveStretch):
        mooney_rivlin_stress(0.0, C10, C01)
    with pytest.raises(NonPositiveStretch):
        mooney_rivlin_stress(np.array([1.2, -0.5]), C10, C01)


def test_bundled_database_loads():
    db = load_materials()
    assert sorted(db) == ["FLX9850", "FLX9870", "FLX9885"]
    hinge = db["FLX9870"]
    assert hinge.model is not None
    assert hinge.model.c10_mpa == C10
    assert hinge.model.c01_mpa == C01
    assert hinge.min_elongation_break_pct == 120.0
    assert 0.0 < hinge.model.poisson <= 0.5
    assert default_materials_path().exists()


def test_uniaxial_by_material_name():
    db = load_materials()
    sigma = mooney_rivlin_uniaxial(1.43, db["FLX9870"])
    assert sigma == pytest.approx(0.6279419534800373, abs=1e-12)


def test_material_without_model_raises():
    bare = MaterialSpec(
        name="bare",
        shore_a=(60.0, 70.0),
        elongation_break_pct=(100.0, 150.0),
    )
    with pytest.raises(MissingMaterialModel):
        mooney_rivlin_uniaxial(1.2, bare)


def test_strain_budget_pass_and_fail():
    db = load_materials()
    hinge = db["FLX9870"]
    ok = strain_budget_check(43.0, hinge)
    assert ok.passed and ok.margin_pct == 77.0
    assert ok.capacity_pct == 120.0 and ok.demand_pct == 43.0
    also_ok = strain_budget_check(30.0, hinge)
    assert also_ok.passed and also_ok.margin_pct == 90.0
    broken = strain_budget_check(130.0, hinge)
    assert not broken.passed and broken.margin_pct == -10.0


def test_safety_factor_scales_the_demand():
    db = load_materials()
    hinge = db["FLX9870"]
    checked = strain_budget_check(43.0, hinge, safety_factor=2.0)
    assert checked.demand_pct == 86.0
    assert checked.passed and checked.margin_pct == 34.0
    with pytest.raises(ValueError):
        strain_budget_check(43.0, hinge, safety_factor=0.5)
    with pytest.raises(ValueError):
        strain_budget_check(-1.0, hinge)
    with pytest.raises(ValueError):
        strain_budget_check(math.nan, hinge)
    with pytest.raises(ValueError):
        strain_budget_check(43.0, hinge, safety_factor=math.nan)


def test_get_material_lists_known_names():
    db = load_materials()
    with pytest.raises(UnknownMaterial) as err:
        get_material(db, "FLX9999")
    assert "FLX9870" in str(err.value)


def test_database_version_check(tmp_path: Path):
    doc = json.loads(default_materials_path().read_text())
    bad = tmp_path / "materials.json"
    for version in (99, True):  # True == 1, but a bool is no version
        doc["format_version"] = version
        bad.write_text(json.dumps(doc))
        with pytest.raises(VersionError):
            load_materials(bad)


def test_database_schema_checks(tmp_path: Path):
    doc = json.loads(default_materials_path().read_text())
    entry = next(m for m in doc["materials"] if m["name"] == "FLX9870")
    entry["elongation_break_pct"] = [150.0, 120.0]
    bad = tmp_path / "materials.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_materials(bad)


def test_custom_database_path(tmp_path: Path):
    doc = {
        "format_version": 1,
        "materials": [
            {
                "name": "softgoo",
                "shore_a": [20.0, 30.0],
                "elongation_break_pct": [300.0, 400.0],
                "model": {
                    "type": "mooney-rivlin",
                    "c10_mpa": 0.1,
                    "c01_mpa": 0.01,
                    "poisson": 0.49,
                },
            }
        ],
    }
    path = tmp_path / "db.json"
    path.write_text(json.dumps(doc))
    db = load_materials(path)
    assert list(db) == ["softgoo"]
    assert db["softgoo"].model == MooneyRivlin(0.1, 0.01, 0.49)
    assert strain_budget_check(250.0, db["softgoo"]).passed


def _one_material(**overrides) -> dict:
    entry = {"name": "softgoo", "shore_a": [20.0, 30.0], "elongation_break_pct": [300.0, 400.0]}
    entry.update(overrides)
    return {"format_version": 1, "materials": [entry]}


@pytest.mark.parametrize(
    "text, where",
    [
        ("{not json", "not a JSON document"),
        ("[1, 2]", "top level must be an object"),
        ('{"format_version": 1, "materials": {"name": "x"}}', "materials: must be a list"),
        (json.dumps(_one_material(name=["x"])), "materials[0].name"),
        (json.dumps(_one_material(elongation_break_pct=[100.0, math.nan])),
         "materials[0].elongation_break_pct"),
        (json.dumps(_one_material(shore_a=[-math.inf, 30.0])), "materials[0].shore_a"),
        (json.dumps(_one_material(shore_a=[70.0, -60.0])), "materials[0].shore_a"),
        (json.dumps(_one_material(shore_a=[90.0, 110.0])), "materials[0].shore_a"),
        (json.dumps(_one_material(model={"type": "mooney-rivlin", "c10_mpa": math.nan,
                                         "c01_mpa": 0.01, "poisson": 0.49})),
         "materials[0].model.c10_mpa"),
        (json.dumps(_one_material(model={"type": "mooney-rivlin", "c10_mpa": 0.1,
                                         "c01_mpa": math.inf, "poisson": 0.49})),
         "materials[0].model.c01_mpa"),
        (json.dumps(_one_material(model="mooney-rivlin")), "materials[0].model"),
        (json.dumps(_one_material(shore_a=[10**400, 30.0])), "materials[0].shore_a"),
        (json.dumps(_one_material(model={"type": "mooney-rivlin", "c10_mpa": 10**400,
                                         "c01_mpa": 0.01, "poisson": 0.49})),
         "materials[0].model.c10_mpa"),
        (json.dumps(_one_material(shore_a=[True, 50.0])), "materials[0].shore_a"),
        (json.dumps(_one_material(shore_a="55")), "materials[0].shore_a"),
        (json.dumps(_one_material(description=5)), "materials[0].description"),
        (json.dumps(_one_material(shoer_a=[20.0, 30.0])), "materials[0].shoer_a: unknown key"),
        (json.dumps(_one_material(model={"type": "mooney-rivlin", "c10_mpa": 0.1,
                                         "c01_mpa": 0.01, "poisson": 0.49, "poison": 0.4})),
         "materials[0].model.poison: unknown key"),
        ('{"format_version": 1, "materials": [5]}', "materials[0]: must be an object"),
    ],
    ids=["invalid-json", "list-top-level", "materials-not-a-list",
         "name-not-a-string", "nan-elongation", "inf-shore", "reversed-shore",
         "shore-over-100", "nan-c10", "inf-c01",
         "model-not-an-object", "huge-shore", "huge-c10", "bool-in-band",
         "string-band", "description-not-a-string", "unknown-entry-key",
         "unknown-model-key", "entry-not-an-object"],
)
def test_malformed_database_is_a_schema_error(tmp_path: Path, text, where):
    path = tmp_path / "db.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_materials(path)
    assert where in str(err.value)


def test_database_is_read_as_utf8(tmp_path: Path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps(_one_material(description="Shore 20–30 A, ±5 %"),
                               ensure_ascii=False), encoding="utf-8")
    assert load_materials(path)["softgoo"].description == "Shore 20–30 A, ±5 %"
    path.write_bytes(b'{"format_version": 1, "materials": [], "note": "caf\xe9"}')
    with pytest.raises(SchemaError, match="not a JSON document"):
        load_materials(path)
