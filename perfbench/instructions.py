"""User-space instructions retired, counted by the CPU (``perf_event_open``).

On a shared machine the time a fixed amount of work takes can change by
2x from minute to minute, because neighbours contend for the core. The
number of instructions the work retires does not change (about 0.03%
spread over a full cold suite), so it is the steady measure of CPU work
next to the wall-clock metrics.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_INHERIT = 1 << 1
_EXCLUDE_KERNEL = 1 << 5
_EXCLUDE_HV = 1 << 6


class InstructionCounter:
    """Counts this process and every child started after it was opened.

    With ``inherit`` set, a child's count is added to this counter when
    the child exits, so ``read()`` before starting a child and after
    reaping it brackets the child's own instructions (plus the few this
    process spends starting it).
    """

    def __init__(self) -> None:
        number = _SYSCALL.get(platform.machine())
        if number is None:
            raise OSError(f"perf_event_open: unsupported machine {platform.machine()}")
        attr = bytearray(128)  # struct perf_event_attr
        struct.pack_into(
            "IIQ", attr, 0, _PERF_TYPE_HARDWARE, len(attr), _PERF_COUNT_HW_INSTRUCTIONS
        )
        struct.pack_into("Q", attr, 40, _INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        buffer = ctypes.create_string_buffer(bytes(attr), len(attr))
        self.fd = libc.syscall(number, buffer, 0, -1, -1, 0)
        if self.fd < 0:
            errno = ctypes.get_errno()
            raise OSError(errno, f"perf_event_open: {os.strerror(errno)}")

    def read(self) -> int:
        return struct.unpack("Q", os.read(self.fd, 8))[0]

    def close(self) -> None:
        os.close(self.fd)
