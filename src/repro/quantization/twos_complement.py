"""Two's-complement embedding of signed integers into GF(q).

Paper eqs. (31) and (36): negative integers are represented as ``q + x`` so
that field addition implements signed integer addition as long as no
intermediate value leaves ``(-q/2, q/2)``.  This is what lets masked,
quantized model updates be summed in the field and mapped back to signed
integers exactly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QuantizationError
from repro.field.arithmetic import FiniteField


def to_field(gf: FiniteField, x: np.ndarray) -> np.ndarray:
    """Map signed int64 values into GF(q): ``x`` if ``x >= 0`` else ``q + x``.

    Raises when any ``|x| >= q/2``, which would make the embedding
    ambiguous (wrap-around error).
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise QuantizationError(f"to_field expects integers, got dtype {x.dtype}")
    half = (gf.q - 1) // 2
    if x.size and (int(x.max(initial=0)) > half or int(x.min(initial=0)) < -half):
        raise QuantizationError(
            f"values must lie in [-{half}, {half}] to avoid wrap-around"
        )
    out = x.astype(np.int64)
    out = np.where(out < 0, out + gf.q, out)
    return out.astype(np.uint64)


def from_field(gf: FiniteField, a: np.ndarray) -> np.ndarray:
    """Inverse map (eq. 36): residues above ``(q-1)/2`` become negative."""
    return gf.to_signed(a)
