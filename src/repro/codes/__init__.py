"""Model codes ("community codes"): low-level interfaces and high-level
script-side wrappers.

Low level (raw arrays, code-native units): :class:`PhiGRAPEInterface`,
:class:`SSEInterface`, :class:`GadgetInterface`, :class:`OctgravInterface`,
:class:`FiInterface`.

High level (units + channels): :class:`PhiGRAPE`, :class:`SSE`,
:class:`Gadget`, :class:`Octgrav`, :class:`Fi`.
"""

from .base import (
    CodeInterface,
    CodeStateError,
    InCodeParticleStorage,
    InflightTracker,
)
from .gadget import GadgetInterface, ParallelGadget
from .group import EvolveGroup
from .highlevel import (
    CommunityCode,
    Fi,
    Gadget,
    GravitationalDynamicsCode,
    Octgrav,
    PhiGRAPE,
    SSE,
)
from .kernels import (
    Octree,
    direct_acc_jerk,
    direct_acceleration,
    direct_potential,
    gravity_field,
    total_energy,
)
from .phigrape import PhiGRAPEInterface
from .sse import SSEInterface
from .treecode import FiInterface, OctgravInterface, TreeGravityInterface

__all__ = [
    "CodeInterface",
    "CodeStateError",
    "EvolveGroup",
    "InCodeParticleStorage",
    "InflightTracker",
    "PhiGRAPEInterface",
    "SSEInterface",
    "GadgetInterface",
    "ParallelGadget",
    "OctgravInterface",
    "FiInterface",
    "TreeGravityInterface",
    "CommunityCode",
    "GravitationalDynamicsCode",
    "PhiGRAPE",
    "Octgrav",
    "Fi",
    "Gadget",
    "SSE",
    "Octree",
    "direct_acceleration",
    "direct_acc_jerk",
    "direct_potential",
    "gravity_field",
    "total_energy",
]
