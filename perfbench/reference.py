"""Reference kernels that gauge the machine's speed beside the timed operations.

On a shared virtual machine the same code runs up to 1.7x slower for seconds,
and at times for a minute or more, while neighbours load the host. No number
of repetitions in a 30-second run removes that when the whole run falls in a
slow stretch. So child.py times a fixed reference kernel, code of the
benchmark's own and none of drasim's, before and after every block of about
BLOCK_S seconds of operations, and scales each operation's time by

    NOMINAL_S / (mean of the two reference times around its block)

A slow stretch slows the kernel and the operations nearly alike, and the scale
takes most of it out (the pure-Python kernel slows somewhat more than the
message engine does); a change to drasim does not touch the kernel, so it
shows in full.
The scaled times are seconds at the kernel's nominal speed: NOMINAL_S is the
kernel's time in the machine's fast state, measured on a 2-vCPU Intel Xeon
(Sapphire Rapids) KVM guest with numpy 2.4 and Python 3.11.

Each workload names the kernel closest to its own work: "numpy" (counter-based
draws, powers, logs, masks and sums over 65,536 x 2 arrays, like the Monte
Carlo estimators) or "python" (small objects, method calls, tuples, dicts and
integer arithmetic, like the message engine). The python kernel also scales
set-up time. It imports nothing, so child.py can time it before
`import drasim` without importing anything early.
"""

import gc
import time

BLOCK_S = 0.1  # operation time between two reference samples


def numpy_kernel() -> float:
    import numpy as np  # here, not above: set-up timing must pay for numpy's import

    acc = 0.0
    for chunk in range(2):
        bitgen = np.random.Philox(key=12345, counter=[0, 0, 0, chunk])
        u = np.random.Generator(bitgen).random((65536, 2))
        x = np.power(u, -0.5) - 1.0
        y = np.log1p(x[:, 1]) * np.maximum(x[:, 0] - x[:, 1], 0.0)
        acc += float(np.sum(np.where(x[:, 0] > 2.0, y, -y)))
    return acc


class _Message:
    __slots__ = ("sender", "round", "payload")

    def __init__(self, sender: str, round_: int, payload: tuple):
        self.sender = sender
        self.round = round_
        self.payload = payload

    def key(self) -> tuple:
        return self.sender, self.round % 11


def python_kernel() -> int:
    log, seen = [], {}
    for i in range(7000):
        message = _Message(f"b{i % 7}", i, (i, 3 * i))
        log.append(message)
        key = message.key()
        seen[key] = seen.get(key, 0) + len(message.payload)
        if i % 16 == 0:
            seen[key] ^= pow(i * 2654435761, 65537, (1 << 61) - 1) & 255
    return len(log) + len(seen)


def measure(kernel) -> float:
    """Seconds one call of the kernel takes now.

    The cyclic garbage collector is off meanwhile: its passes cost more as the
    caller's heap grows, which would make the kernel gauge the heap, not the
    machine. The kernel makes no cycles, so it leaves nothing for it.
    """
    gc.disable()
    try:
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        gc.enable()


# kernel and its nominal time in seconds
KERNELS = {
    "numpy": (numpy_kernel, 0.0062),
    "python": (python_kernel, 0.0072),
}
