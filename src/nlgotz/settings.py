"""The settings of a verification run, and the prime test that validates them.

The command line parses every option against these defaults, so this module
imports nothing beyond the standard library: `nlgotz bound`, `ample`,
`decompose` and `catalog` build their parser from it without loading numpy.
`verify`, `graded` and `modp` re-export the names they own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "MAX_PRIME",
    "DEFAULT_PRIME",
    "DEFAULT_SEED",
    "DEFAULT_TRACE_DMAX",
    "SUITES",
    "VerifyConfig",
    "is_prime",
    "check_prime",
]

# every prime the F_p kernels accept is below this
MAX_PRIME = 2**31
DEFAULT_PRIME = 101
DEFAULT_SEED = 0xC0FFEE
DEFAULT_TRACE_DMAX = 60

SUITES = ("macaulay", "restriction", "koszul", "green-scan", "growth", "thresholds")


@lru_cache(maxsize=256)
def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every m < 3,317,044,064,679,887,385,961,981.

    Memoized: every `RingContext` checks its prime, and a run uses few.
    """
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not (2 <= p < MAX_PRIME) or not is_prime(p):
        raise ValueError(f"p = {p} is not a prime in [2, 2**31)")
    return p


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = DEFAULT_SEED
    prime: int = DEFAULT_PRIME
    trials: int = 500
    c_max: int = 2000
    d_max: int = 10
    n_max: int = 30
    t_max: int = 6
    entry_budget: int = 20_000

    def __post_init__(self):
        # below these sizes a suite checks nothing (or cannot run) yet would pass;
        # below c_max = 3 every premise of the Green scan with c' >= 1 is false
        for name, least in (
            ("trials", 1),
            ("c_max", 3),
            ("d_max", 2),
            ("n_max", 1),
            ("t_max", 1),
            ("entry_budget", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        check_prime(self.prime)
