"""ymlab: a pseudospectral gauge-field laboratory on the periodic 3-torus.

Temporal-gauge Yang-Mills evolution for su(2) and u(1), the Yang-Mills heat
flow in DeTurck and caloric gauges, the tension field and its leading
bilinear part, gauge-invariant smoothed energies and the modified energy,
plus the Maxwell-Klein-Gordon analogue.
"""

from .algebra import StructureSpec, su2, u1
from .dynamics import CauchyState, energy, evolve, ym_rhs
from .grid import Grid
from .heatflow import FlowState, TimeStencil, run_flow, tension_field

__all__ = [
    "StructureSpec", "su2", "u1", "Grid",
    "CauchyState", "energy", "evolve", "ym_rhs",
    "FlowState", "TimeStencil", "run_flow", "tension_field",
]

__version__ = "0.1.0"
