"""Fixed reference kernels that measure how fast the host runs at the moment.

On a shared host the same verdict can take twice as long a minute later,
and most of that drift is common to all code of one kind.  The kernels run
between verdicts and around every set-up probe.  A host factor is the
geometric mean, over kernels, of the median kernel time divided by the
kernel's time on a quiet reference host; a time divided by the host factor
of the kernels run around it is a time at the reference host's speed.  The
three kernels stand for the three kinds of work the verdicts do: Python
overhead around tiny matrices, Kronecker products larger than a core's caches,
and LAPACK singular values.  They do not call optheory, so a change to the
package cannot change them.

They run in a sibling interpreter (``KernelProcess``), a batch at a time
on request, so that their arrays never count towards the peak memory of the
process being measured.
"""

from __future__ import annotations

# Pin BLAS and OpenMP to one thread before numpy is first imported.
import pinning  # noqa: F401, I001

import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

_RNG = np.random.default_rng(0)
_K = _RNG.standard_normal((20, 20)) + 1j * _RNG.standard_normal((20, 20))
_M = _RNG.standard_normal((200, 150))


def _small() -> float:
    acc = 0.0
    for k in range(30):
        rng = np.random.default_rng(np.random.SeedSequence([7, k]))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        acc += float(np.linalg.eigvalsh(rho)[0])
        acc += float(np.abs(np.kron(rho, g) - np.kron(g, rho)).max())
        acc += sum(len(str(x)) for x in range(12))
    return acc


def _kron() -> float:
    return float(np.abs(np.kron(_K, _K.conj()) + np.kron(_K.conj(), _K)).max())


def _svd() -> float:
    return float(np.linalg.svd(_M, compute_uv=False)[0])


# Median seconds of each kernel on a 2-vCPU Intel Xeon VM at 2.0 GHz with
# Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 on one thread, host quiet.
KERNELS = {"small": (_small, 0.0050), "kron": (_kron, 0.0060), "svd": (_svd, 0.0030)}


def run_kernels() -> dict[str, float]:
    """Run every kernel once; return its wall time in seconds, by name."""
    times = {}
    for name, (kernel, _) in KERNELS.items():
        start = perf_counter()
        if not math.isfinite(kernel()):
            raise ArithmeticError(f"reference kernel {name} produced a non-finite value")
        times[name] = perf_counter() - start
    return times


def host_factor(
    samples: list[dict[str, float]], kinds: tuple[str, ...] = tuple(KERNELS)
) -> tuple[float, dict[str, float]]:
    """Geometric mean over the ``kinds`` of kernel of median time / reference
    time, and the median time of every kernel."""
    medians = {name: float(np.median([s[name] for s in samples])) for name in KERNELS}
    logs = [math.log(medians[name] / KERNELS[name][1]) for name in kinds]
    return math.exp(sum(logs) / len(logs)), medians


# Verdicts on a joint space of at most this dimension (the small-dims sizes)
# spend their time in Python overhead around tiny matrices: the ``small``
# kernel alone follows their speed, where the Kronecker and SVD kernels
# follow the memory system and BLAS, which such verdicts hardly use.
PYTHON_BOUND_DIM = 6


def kinds_for(joint_dim: int) -> tuple[str, ...]:
    """The kernels whose host factor scales a verdict on a ``joint_dim`` space."""
    return ("small",) if joint_dim <= PYTHON_BOUND_DIM else tuple(KERNELS)


class KernelProcess:
    """This file in a sibling interpreter, running batches of kernels on request.

    The sibling ends when its standard input closes: on ``close``, or when
    the process that started it ends.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, reps: int = 1) -> list[dict[str, float]]:
        """Run every kernel ``reps`` times in the sibling; one dict of times per repetition."""
        self._proc.stdin.write(f"{reps}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel process exited {self._proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> KernelProcess:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps([run_kernels() for _ in range(int(request))]), flush=True)
