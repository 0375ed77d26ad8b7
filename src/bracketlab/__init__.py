"""bracketlab: Poisson-bracket functional calculus.

Exact Lie-series expansions of composed Hamiltonian flows, numerical
evaluation of double-bracket functionals and their rigidity inequalities,
an explicit construction witnessing failure of lower semicontinuity, and
empirical perturbation-rate profiling.  Importing it sets a process-wide glibc
malloc policy: freed blocks under 32 MiB are kept for reuse, not returned to the OS until exit.
"""

import contextlib
import ctypes

__version__ = "0.1.0"

# By default glibc hands a freed n^2 jet array (512 KiB at n = 256) back to the kernel, and the
# next evaluation faults it in again; either call alone leaves the other threshold at 128 KiB.
with contextlib.suppress(OSError, AttributeError):  # no mallopt: keep the allocator's own policy
    _mallopt = ctypes.CDLL("libc.so.6").mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's 64-bit maximum
    _mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim
