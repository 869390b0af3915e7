"""Exact combinatorics of rooted trees, level forests, shuffle tensors, and
finite colored operads.

Everything is computed at the level of finite sets: trees and forests are
named-edge presentations, the free operad of a forest has its cuts as
operations, level diagrams of pointed sets unfold to forests, tensor
products of trees are enumerated as shuffles, and the fiberwise category of
a finite operad can be checked for the cocartesian/product behavior its
infinite-dimensional counterparts are defined by.
"""

from . import levelforest, lurie, omegacat, shuffle, treecore
from .levelforest import *  # noqa: F403
from .lurie import *  # noqa: F403
from .omegacat import *  # noqa: F403
from .shuffle import *  # noqa: F403
from .treecore import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *treecore.__all__,
    *omegacat.__all__,
    *levelforest.__all__,
    *shuffle.__all__,
    *lurie.__all__,
    "__version__",
]
