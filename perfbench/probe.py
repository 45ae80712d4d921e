"""Machine-speed probe for the benchmark runner.

    python3 probe.py OUT_FILE PERIOD_S

Times a fixed numpy kernel (small matmuls, a loop of tiny array operations,
an elementwise exp) every PERIOD_S seconds and appends one line
``<time.monotonic() at the end> <seconds>`` per run to OUT_FILE, until it is
terminated. The kernel does not touch the package, so its time moves only
with the speed the shared machine gives this process; the runner divides
every operation's time by the kernel time measured while it ran.
"""

import sys
import time

import numpy as np


def main(path: str, period: float) -> None:
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(256, 128)), rng.normal(size=(128, 128))
    c, small = rng.normal(size=(5000, 128)), np.ones(8)
    with open(path, "w") as out:
        while True:
            start = time.monotonic()
            for _ in range(20):
                a @ b
            x = small
            for _ in range(3000):
                x = x + 1.0
            for _ in range(2):
                np.exp(c)
            end = time.monotonic()
            out.write(f"{end} {end - start}\n")
            out.flush()
            time.sleep(period)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
