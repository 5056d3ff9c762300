"""Quantisation helpers: real-valued matrices on the 8-bit datapath.

StreamPIM's datapath is integer (8-bit operands, wide accumulation); DNN
inference on it therefore runs quantised, exactly like integer
accelerators.  This module provides the standard affine scheme:

    q = clip(round(x / scale) + zero_point, 0, 2^bits - 1)

with per-tensor scales, plus the matmul identity that lets the PIM
device do all the heavy work in integers:

    A @ B  ~=  s_a * s_b * (Qa - z_a) @ (Qb - z_b)

The integer product expands into four terms (Qa@Qb and three
zero-point corrections), of which only Qa@Qb is data-dependent on both
operands — so the PIM device computes Qa@Qb, and the cheap correction
terms fold into the host-side dequantisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class QuantParams:
    """Affine quantisation parameters for one tensor.

    Attributes:
        scale: real value of one quantisation step.
        zero_point: integer code representing real 0.0.
        bits: code width (the datapath's word width).
    """

    scale: float
    zero_point: int
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.bits <= 0:
            raise ValueError("bits must be positive")
        if not 0 <= self.zero_point < (1 << self.bits):
            raise ValueError("zero_point out of code range")

    @property
    def qmax(self) -> int:
        return (1 << self.bits) - 1


def calibrate(values: np.ndarray, bits: int = 8) -> QuantParams:
    """Min/max calibration of affine parameters for one tensor."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot calibrate an empty tensor")
    low = float(min(values.min(), 0.0))
    high = float(max(values.max(), 0.0))
    qmax = (1 << bits) - 1
    if high == low:
        return QuantParams(scale=1.0, zero_point=0, bits=bits)
    # A range narrower than qmax normal floats would underflow the scale
    # to a subnormal or to zero; floor it at the smallest normal float.
    scale = max((high - low) / qmax, float(np.finfo(np.float64).tiny))
    zero_point = int(round(-low / scale))
    zero_point = max(0, min(qmax, zero_point))
    return QuantParams(scale=scale, zero_point=zero_point, bits=bits)


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Real tensor -> integer codes."""
    values = np.asarray(values, dtype=np.float64)
    codes = np.round(values / params.scale) + params.zero_point
    return np.clip(codes, 0, params.qmax).astype(np.int64)


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Integer codes -> real tensor."""
    return (np.asarray(codes, dtype=np.float64) - params.zero_point) * (
        params.scale
    )


def quantized_matmul(
    qa: np.ndarray,
    pa: QuantParams,
    qb: np.ndarray,
    pb: QuantParams,
) -> np.ndarray:
    """Real-valued A @ B from integer codes.

    Performs the data-dependent integer product (the part the PIM device
    executes) plus the three zero-point correction terms, then scales
    back to reals.
    """
    qa = np.asarray(qa, dtype=np.int64)
    qb = np.asarray(qb, dtype=np.int64)
    if qa.shape[1] != qb.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {qa.shape} @ {qb.shape}"
        )
    k = qa.shape[1]
    raw = qa @ qb  # the PIM-side product
    row_sums = qa.sum(axis=1, keepdims=True)
    col_sums = qb.sum(axis=0, keepdims=True)
    corrected = (
        raw
        - pb.zero_point * row_sums
        - pa.zero_point * col_sums
        + k * pa.zero_point * pb.zero_point
    )
    return pa.scale * pb.scale * corrected.astype(np.float64)


def quantization_error(
    a: np.ndarray, b: np.ndarray, bits: int = 8
) -> Tuple[float, float]:
    """Relative Frobenius error of a quantised matmul vs float.

    Returns:
        ``(error, worst_element_error)`` — relative Frobenius-norm error
        and the worst absolute element error normalised by the result's
        magnitude scale.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pa, pb = calibrate(a, bits), calibrate(b, bits)
    approx = quantized_matmul(quantize(a, pa), pa, quantize(b, pb), pb)
    exact = a @ b
    norm = np.linalg.norm(exact)
    if norm == 0:
        return 0.0, 0.0
    scale = max(np.abs(exact).max(), 1e-30)
    return (
        float(np.linalg.norm(approx - exact) / norm),
        float(np.abs(approx - exact).max() / scale),
    )
