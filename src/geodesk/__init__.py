"""geodesk: numerical differential geometry on linear spaces and flat tori."""

from .grid import Field, TorusGrid, load_field, save_field
from .lincs import LinCS
from .report import CheckReport

__version__ = "0.1.0"

__all__ = ["CheckReport", "Field", "LinCS", "TorusGrid", "load_field", "save_field",
           "__version__"]
