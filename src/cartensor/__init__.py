"""cartensor: exact reduction of coupled spherical harmonics with distinct unit-vector
arguments to Cartesian form — scalar polynomials in dot and box products for total
rank 0, irreducible (symmetric traceless) Cartesian tensors for total rank L > 0 —
with an independent numeric oracle for verification.
"""

from .coeff import CoeffAtom, atom, atom_mul
from .tensor import TensorPoly, harmonic_tensor, couple_even, couple_odd
from .reduce import Couple, Harmonic, ReductionResult, reduce_expr
from .parser import parse, render_json, render_latex, render_text
from .oracle import VerifyReport, eval_expr, verify, ylm

__version__ = "0.1.0"

__all__ = [
    "CoeffAtom", "atom", "atom_mul",
    "TensorPoly", "harmonic_tensor", "couple_even", "couple_odd",
    "Couple", "Harmonic", "ReductionResult", "reduce_expr",
    "parse", "render_json", "render_latex", "render_text",
    "VerifyReport", "eval_expr", "verify", "ylm",
    "__version__",
]
