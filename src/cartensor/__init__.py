"""cartensor: exact reduction of coupled spherical harmonics with distinct unit-vector
arguments to Cartesian form — scalar polynomials in dot and box products for total
rank 0, irreducible (symmetric traceless) Cartesian tensors for total rank L > 0 —
with an independent numeric oracle for verification.

The oracle, and numpy with it, loads on first use of one of its names, so
importing the package and reducing never load numpy.
"""

import importlib

from .coeff import CoeffAtom, atom, atom_mul
from .tensor import TensorPoly, harmonic_tensor, couple_even, couple_odd
from .reduce import Couple, Harmonic, ReductionResult, reduce_expr
from .parser import parse, render_json, render_latex, render_text

__version__ = "0.1.0"

__all__ = [
    "CoeffAtom", "atom", "atom_mul",
    "TensorPoly", "harmonic_tensor", "couple_even", "couple_odd",
    "Couple", "Harmonic", "ReductionResult", "reduce_expr",
    "parse", "render_json", "render_latex", "render_text",
    "VerifyReport", "eval_expr", "verify", "ylm",
    "__version__",
]

_ORACLE_NAMES = ("VerifyReport", "eval_expr", "verify", "ylm")


def __getattr__(name):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import oracle``: the latter asks hasattr of
    # this package, which calls back into __getattr__ without end.
    oracle = importlib.import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
