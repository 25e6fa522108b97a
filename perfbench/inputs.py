"""Seeded design generator: perturbed copies of the reference armwing.

Every free design parameter (stage 'humerus' or 'radius') whose target is
not pinned by a symmetry equality is scaled by an independent factor drawn
uniformly from [1 - 2%, 1 + 2%] and clipped to its bounds.  The pinned ones
(crank_pivot_x, crank_phase) keep their values: moving them would break
the symmetry entries of the constraint vector on every draw.  A draw is
kept only when the design assembles and satisfies the whole constraint
vector; otherwise the same design index draws again.  Design ``i`` of seed
``s`` depends on (s, i) alone, so any subset of indices is reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from armwing import MechanismGraph, evaluate_constraints

PERTURBATION = 0.02
SAMPLES = 360
MAX_DRAWS = 100


def free_parameters(mech: MechanismGraph) -> list[str]:
    """Names of the parameters the generator perturbs, in file order."""
    pinned = {sym.target for sym in mech.spec.symmetry}
    return [
        b.name
        for b in mech.parameters.values()
        if b.stage in ("humerus", "radius") and b.target not in pinned
    ]


class DesignStream:
    """Designs of one seed, drawn on demand; keeps a digest of every draw."""

    def __init__(self, base: MechanismGraph, seed: int):
        self.base = base
        self.seed = int(seed)
        self.names = free_parameters(base)
        self.drawn = 0
        self._digest = hashlib.sha256()

    def design(self, index: int) -> MechanismGraph:
        """Design ``index`` of the seed, a fresh MechanismGraph every call."""
        rng = np.random.default_rng([self.seed, index])
        nominal = np.array([self.base.get_parameter(n) for n in self.names])
        lower = np.array([self.base.parameters[n].min for n in self.names])
        upper = np.array([self.base.parameters[n].max for n in self.names])
        for _ in range(MAX_DRAWS):
            factors = rng.uniform(1.0 - PERTURBATION, 1.0 + PERTURBATION, nominal.size)
            values = np.clip(nominal * factors, lower, upper)
            design = self.base.with_parameters(dict(zip(self.names, values.tolist())))
            if np.max(evaluate_constraints(design, samples=SAMPLES)) <= 0.0:
                self.drawn += 1
                self._digest.update(index.to_bytes(8, "little"))
                self._digest.update(values.tobytes())
                return design
        raise RuntimeError(
            f"seed {self.seed} design {index}: no feasible draw in {MAX_DRAWS}"
        )

    def digest(self) -> str:
        """sha256 over the index and perturbed values of every design drawn,
        in draw order."""
        return self._digest.hexdigest()
