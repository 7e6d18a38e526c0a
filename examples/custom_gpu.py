#!/usr/bin/env python3
"""Model a hypothetical next-generation GPU (the paper's future work).

"Future work of this suite can ... adapt to next generation hardware
changes" (§V).  Because every chip is a :class:`GPUSpec`, a hypothetical
part is a dataclass instance: this example doubles the RV870's SIMD count
and memory clock ("RV970"), runs the ALU:Fetch micro-benchmark on it, and
reads off how the balance point moves.

Run:  python examples/custom_gpu.py
"""

import dataclasses

from repro import DataType, KernelParams, LaunchConfig, compile_kernel
from repro.analysis import find_knee
from repro.arch import RV870
from repro.arch.specs import CacheSpec
from repro.kernels import generate_generic
from repro.sim import simulate_launch


def make_rv970():
    """A speculative successor: 2x SIMDs, faster memory, bigger L1."""
    return dataclasses.replace(
        RV870,
        chip="RV970",
        card="Hypothetical HD 6970",
        short_card="6970",
        num_simds=40,
        num_alus=40 * 16 * 5,
        num_texture_units=40 * 4,
        core_clock_mhz=900.0,
        memory=dataclasses.replace(RV870.memory, clock_mhz=1500.0),
        texture_l1=CacheSpec(size_bytes=16384, line_bytes=128),
        board_memory_mib=2048,
    )


def knee_of(gpu, dtype):
    xs, ys = [], []
    for k in range(1, 65):
        ratio = k / 4
        program = compile_kernel(
            generate_generic(
                KernelParams(inputs=16, alu_fetch_ratio=ratio, dtype=dtype)
            )
        )
        xs.append(ratio)
        ys.append(simulate_launch(program, gpu, LaunchConfig()).seconds)
    return find_knee(xs, ys)


def main() -> None:
    rv970 = make_rv970()
    print(f"Modeling {rv970.card}: {rv970.num_alus} ALUs, "
          f"{rv970.num_simds} SIMDs, "
          f"{rv970.memory.peak_bandwidth_bytes_per_s/1e9:.0f} GB/s")
    print()

    print(f"{'chip':<8} {'dtype':<7} {'plateau':>9} {'knee':>6}")
    for gpu in (RV870, rv970):
        for dtype in (DataType.FLOAT, DataType.FLOAT4):
            analysis = knee_of(gpu, dtype)
            knee = f"{analysis.knee_x:g}" if analysis.has_knee else ">16"
            print(
                f"{gpu.chip:<8} {dtype.value:<7} "
                f"{analysis.plateau_seconds:8.2f}s {knee:>6}"
            )
    print()
    print("Doubling ALUs without doubling per-SIMD bandwidth pushes the")
    print("balance point to higher ALU:Fetch ratios: the hypothetical part")
    print("needs even more arithmetic per fetch to stay busy — the same")
    print("trend the paper observed from the RV670 to the RV870.")


if __name__ == "__main__":
    main()
