"""geodesk: numerical differential geometry on linear spaces and flat tori."""

from .grid import TorusGrid
from .lincs import LinCS
from .report import CheckReport

__version__ = "0.1.0"

__all__ = ["CheckReport", "LinCS", "TorusGrid", "__version__"]
