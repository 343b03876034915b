"""Monomial rotation symmetric Boolean functions and their Walsh spectra.

The package builds truth tables for the stride-e degree-l rotation
symmetric families and for the quartic chain variants they decompose
into, computes spectra by a fast transform and by direct summation,
evaluates the arity-lowering and zero-mask recurrences, sweeps the
families' nonlinearity against their weight, and ships a verification
harness that replays every claimed identity against independent
computation.

The public names are each submodule's ``__all__``, re-exported here.
"""

from . import core, families, harness, recurrences, report, sweep, transfer
from .core import *
from .families import *
from .harness import *
from .recurrences import *
from .report import *
from .sweep import *
from .transfer import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *families.__all__,
    *harness.__all__,
    *recurrences.__all__,
    *report.__all__,
    *sweep.__all__,
    *transfer.__all__,
    "__version__",
]
