"""Systematic-free MDS erasure code over GF(q).

An ``(N, U)`` MDS code maps ``U`` data symbols (each a row vector) to ``N``
coded symbols such that *any* ``U`` coded symbols recover the data.  Two
equivalent generator constructions are provided:

* ``"vandermonde"`` — coded symbol ``j`` is ``sum_k data[k] * alpha_j**k``,
  i.e. evaluation of the polynomial whose *coefficients* are the data rows
  (the paper's eq. 5 form).  Decoding solves a Vandermonde system.
* ``"lagrange"`` — data rows are values of a degree-``U-1`` polynomial at
  points ``beta_1..beta_U``; coded symbol ``j`` is its value at ``alpha_j``
  (Lagrange-coded-computing form, Yu et al. 2019).  Decoding is Lagrange
  interpolation back to the ``beta`` points.

Both satisfy the MDS property because the relevant square sub-matrices are
(generalized) Vandermonde with distinct evaluation points.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import CodingError, NotEnoughSharesError
from repro.field.arithmetic import FiniteField
from repro.field.linalg import solve
from repro.field.vandermonde import distinct_points, lagrange_coeffs, vandermonde

GENERATORS = ("vandermonde", "lagrange")

#: Decode-coefficient matrices one code remembers (least recently used
#: goes first).  The ``k x k`` matrix is a pure function of which coded
#: symbols answered, a session's responder set is its ``k`` lowest-id
#: survivors, and so a handful of sets recur round after round while
#: building one costs as much as the rest of an online round.
COEFF_MEMO_SIZE = 32


class MDSCode:
    """An ``(n, k)`` MDS erasure code over GF(q).

    Parameters
    ----------
    gf:
        The finite field to operate in.
    n:
        Number of coded symbols produced.
    k:
        Number of data symbols; any ``k`` coded symbols reconstruct the data.
    generator:
        ``"lagrange"`` (default) or ``"vandermonde"``; see module docstring.
    """

    def __init__(
        self,
        gf: FiniteField,
        n: int,
        k: int,
        generator: str = "lagrange",
    ):
        if k <= 0 or n < k:
            raise CodingError(f"require 0 < k <= n, got n={n}, k={k}")
        if generator not in GENERATORS:
            raise CodingError(f"unknown generator {generator!r}; use {GENERATORS}")
        if n + k >= gf.q:
            raise CodingError(f"field size {gf.q} too small for n={n}, k={k}")
        self.gf = gf
        self.n = n
        self.k = k
        self.generator = generator
        # beta: data points (lagrange only); alpha: coded-symbol points.
        self.beta = distinct_points(gf, k, start=1)
        self.alpha = distinct_points(gf, n, start=k + 1)
        if generator == "vandermonde":
            self._gen_matrix = vandermonde(gf, self.alpha, k)  # (k, n)
        else:
            self._gen_matrix = lagrange_coeffs(gf, self.beta, self.alpha).T  # (k, n)
        # The (n, k) left operand of every encode, laid out once.
        self._encode_matrix = np.ascontiguousarray(self._gen_matrix.T)
        self._coeff_memo: "OrderedDict[Tuple[int, ...], np.ndarray]" = OrderedDict()
        self._coeff_lock = threading.Lock()

    @property
    def generator_matrix(self) -> np.ndarray:
        """The ``(k, n)`` generator matrix ``G``; coded = ``G.T @ data``."""
        return self._gen_matrix.copy()

    def encode(
        self, data: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Encode ``k`` data rows into ``n`` coded rows.

        ``data`` has shape ``(k, width)`` (``(k,)`` for scalar symbols,
        ``(B, k, width)`` for a stack of blocks); the result has shape
        ``(n, width)`` (``(n,)``, ``(B, n, width)``) and is written into
        ``out`` when one is given.  Canonical ``data`` is read in place:
        ``gf.matmul`` checks it in one compare pass, reduces anything else.
        """
        data = np.asarray(data)
        scalar = data.ndim == 1
        if scalar:
            data = data[:, None]
            out = None if out is None else out[:, None]
        if data.ndim < 2 or data.shape[-2] != self.k:
            raise CodingError(f"expected {self.k} data rows, got {data.shape}")
        coded = self.gf.matmul(self._encode_matrix, data, out=out)
        return coded[:, 0] if scalar else coded

    def _decode_coeffs(self, indices: Sequence[int]) -> np.ndarray:
        """Read-only ``(k, k)`` interpolation matrix from coded symbols
        ``indices`` back to the data points, memoised per index tuple."""
        key = tuple(indices)
        with self._coeff_lock:
            coeffs = self._coeff_memo.get(key)
            if coeffs is not None:
                self._coeff_memo.move_to_end(key)
                return coeffs
        coeffs = lagrange_coeffs(self.gf, self.alpha[list(key)], self.beta)
        coeffs.setflags(write=False)  # one array handed to every caller
        with self._coeff_lock:
            self._coeff_memo[key] = coeffs
            while len(self._coeff_memo) > COEFF_MEMO_SIZE:
                self._coeff_memo.popitem(last=False)
        return coeffs

    def decode(self, shares: Dict[int, np.ndarray]) -> np.ndarray:
        """Reconstruct the data from any ``k`` coded symbols.

        ``shares`` maps coded-symbol index ``j`` (0-based, ``0 <= j < n``) to
        its row vector.  Extra shares beyond ``k`` are ignored
        deterministically (lowest indices win).
        """
        if len(shares) < self.k:
            raise NotEnoughSharesError(
                f"need {self.k} shares to decode, got {len(shares)}"
            )
        indices = sorted(shares)[: self.k]
        for j in indices:
            if not 0 <= j < self.n:
                raise CodingError(f"share index {j} out of range [0, {self.n})")
        stacked = [np.asarray(shares[j]) for j in indices]
        widths = {s.shape for s in stacked}
        if len(widths) != 1:
            raise CodingError(f"inconsistent share shapes: {widths}")
        scalar = stacked[0].ndim == 0
        # Rows are stacked as given: ``gf.matmul`` reads canonical rows
        # in place and reduces anything else (``solve`` reduces its
        # input itself).  Mixed signed and unsigned 64-bit rows would
        # stack as float64, so those are reduced one by one first.
        rows = np.stack(stacked, axis=0)
        if not np.issubdtype(rows.dtype, np.integer):
            rows = np.stack([self.gf.array(s) for s in stacked], axis=0)
        if rows.ndim == 1:
            rows = rows[:, None]
        if self.generator == "vandermonde":
            # rows[j] = sum_k data[k] * alpha_j^k  =>  V_sub.T @ data = rows
            v_sub = self._gen_matrix[:, indices]  # (k, k)
            data = solve(self.gf, v_sub.T.copy(), rows)
        else:
            data = self.gf.matmul(self._decode_coeffs(indices), rows)
        return data[:, 0] if scalar else data

    def __repr__(self) -> str:
        return (
            f"MDSCode(n={self.n}, k={self.k}, q={self.gf.q}, "
            f"generator={self.generator!r})"
        )
