"""Fixed QAOA angle schedules and the phase-unitary convention.

The angle tables below are the fixed schedules used throughout the package;
they are optimal for the infinite 4-regular tree that the coupling graphs of
large random words locally resemble, so no per-instance optimization loop is
needed.

Convention: one level applies exp(-i gamma_l * H_P) then exp(-i beta_l * X)
on every qubit, with the couplings halved inside the phase,
H_P = 1/2 sum_ij J_ij Z_i Z_j (matching ``hamiltonian_energy``).  Only under
this convention does the p=1 schedule reproduce mean color changes ~ 0.675 n
on large random words, with (gamma_1, beta_1) = (0.52358, -0.39269) at the
closed-form single-level optimum (pi/6, -pi/8) of the 4-regular tree.  The
unhalved convention, H_P = sum_ij J_ij Z_i Z_j, is the same circuit with
every gamma doubled; it gives ~ 0.89 n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import shown


class UnknownParams(ValueError):
    """No fixed angle schedule is available for the requested depth."""


#: Factor on the couplings inside the phase unitary: H_P = PHASE_SCALE * sum J ZZ.
PHASE_SCALE = 0.5


def finite_angle(a) -> bool:
    """An int or float, Python or numpy but not a bool, whose float value is
    finite: the rule for schedule and native gate angles."""
    real = type(a) is not bool and isinstance(a, (int, float, np.integer, np.floating))
    try:
        return real and math.isfinite(a)
    except OverflowError:  # an int past the float range
        return False


@dataclass(frozen=True)
class QaoaParams:
    """Non-empty angle schedule: ``angles[l] = (gamma, beta)`` for level l+1, finite
    angles, each kept as a Python float so that every engine runs in double precision."""

    angles: tuple

    def __post_init__(self):
        if not (isinstance(self.angles, tuple) and self.angles and all(
                isinstance(level, tuple) and len(level) == 2 and all(map(finite_angle, level))
                for level in self.angles)):
            raise ValueError(f"schedule {shown(self.angles)} is not (gamma, beta) pairs "
                             "of finite reals")
        object.__setattr__(self, "angles", tuple(tuple(map(float, level)) for level in self.angles))

    @property
    def p(self) -> int:
        return len(self.angles)


_TREE_ANGLES = {
    1: ((0.52358, -0.39269),),
    2: ((0.40784, -0.53411), (0.73974, -0.28296)),
    3: ((0.35450, -0.58794), (0.65138, -0.42318), (0.75426, -0.22301)),
    4: (
        (0.31500, -0.60498),
        (0.58754, -0.47780),
        (0.67322, -0.36127),
        (0.77120, -0.18753),
    ),
    5: (
        (0.29092, -0.62254),
        (0.54678, -0.50507),
        (0.60334, -0.41672),
        (0.68722, -0.32534),
        (0.78446, -0.16280),
    ),
}


def tree_params(p: int) -> QaoaParams:
    """The fixed infinite-tree schedule for depth p in 1..5."""
    if p not in _TREE_ANGLES:
        raise UnknownParams(f"no fixed schedule for p={p}; available: 1..5")
    return QaoaParams(angles=_TREE_ANGLES[p])
