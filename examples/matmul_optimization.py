#!/usr/bin/env python3
"""Matrix multiplication: a fetch-bound kernel and how to fix it (§IV-B).

The paper: "The matrix multiplication samples in the StreamSDK are fetch
bound ... Increasing the number of ALU operations per fetch will begin to
change the bound towards ALU."

This example (1) multiplies two real matrices through the CAL runtime and
checks the result against NumPy, (2) shows the matmul pass kernel is
fetch-bound on every chip, and (3) applies the paper's advice — raising
arithmetic intensity per fetch — and watches the bound move.

Run:  python examples/matmul_optimization.py
"""

import numpy as np

from repro import KernelParams, generate_generic
from repro.apps import advise, analyze_matmul, simulated_matmul
from repro.arch import RV770, all_gpus
from repro.cal import time_kernel
from repro.ska import format_report


def multiply_real_matrices() -> None:
    print("=== real matmul through the CAL runtime (outer-product passes) ===")
    rng = np.random.default_rng(2010)
    n = 32
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    c, kernel_seconds = simulated_matmul(a, b, RV770, unroll=8)
    error = float(np.max(np.abs(c - a @ b)))
    print(f"  {n}x{n} @ {n}x{n}: max |error| vs NumPy = {error:.2e}")
    print(f"  simulated kernel time across all passes: {kernel_seconds*1e3:.3f} ms")
    print()


def show_boundedness() -> None:
    print("=== the matmul pass kernel is fetch-bound everywhere ===")
    for gpu in all_gpus():
        analysis = analyze_matmul(gpu)
        print(
            f"  {gpu.card:<18} {analysis.seconds:8.2f} s  "
            f"bound={analysis.bound.value:<6} "
            f"SKA ratio={analysis.ska.alu_fetch_ratio:.2f}"
        )
    print()
    analysis = analyze_matmul(RV770)
    print(format_report(analysis.ska))
    print()


def apply_the_papers_advice() -> None:
    print("=== raising arithmetic intensity per fetch (the paper's fix) ===")
    # Model a matmul-like kernel as the generic chain with 17 fetches and
    # a growing ALU budget per fetch, exactly what register blocking does.
    for ops_per_fetch in (1, 2, 4, 8, 16):
        kernel = generate_generic(
            KernelParams(inputs=17, alu_ops=17 * ops_per_fetch),
            name=f"matmul_intensity_{ops_per_fetch}",
        )
        event = time_kernel(RV770, kernel)
        flops = 17 * ops_per_fetch
        print(
            f"  {ops_per_fetch:3d} ALU ops/fetch: {event.seconds:7.2f} s  "
            f"bound={event.bottleneck.value:<6} "
            f"(useful ops per kernel: {flops})"
        )
    print()
    print("The time barely moves until the ALU becomes the bottleneck —")
    print("the fetch-bound kernel executes extra arithmetic for free,")
    print("which is why register-blocked matmul wins on these chips.")
    print()

    kernel = generate_generic(KernelParams(inputs=17, alu_ops=17))
    event = time_kernel(RV770, kernel)
    print("Advisor output for the unblocked kernel:")
    for suggestion in advise(event.result):
        print(f"  * {suggestion}")


def main() -> None:
    multiply_real_matrices()
    show_boundedness()
    apply_the_papers_advice()


if __name__ == "__main__":
    main()
