"""Tensor-size budgeting.

Dense kernels grow like (n^d)^(2k) and wavefunctions like n^(N*d); every
operation that allocates one checks against a cap first so that an oversized
request fails loudly instead of thrashing the machine.  The cap bounds the
complex entries one public call holds for its result (a kernel, a
wavefunction, a Picard iterate, or a stored trajectory, and the states its
loop works in).  Every check reads it through ``default_budget()``; the
HLAB_BUDGET environment variable (a positive integer element count) is its
only setting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_MAX_ELEMENTS = 2**24
DEFAULT_MAX_EIG_ROWS = 4096


class BudgetExceeded(RuntimeError):
    """Requested dense tensor or eigensolve is over the configured cap."""


@dataclass(frozen=True)
class TensorBudget:
    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_eig_rows: int = DEFAULT_MAX_EIG_ROWS

    def check_elements(self, count: int, what: str) -> None:
        if count > self.max_elements:
            raise BudgetExceeded(
                f"{what} needs {count} complex entries, cap is {self.max_elements} "
                f"(set HLAB_BUDGET to raise it)"
            )

    def check_eig_rows(self, rows: int, what: str) -> None:
        if rows > self.max_eig_rows:
            raise BudgetExceeded(
                f"{what} needs a dense eigensolve with {rows} rows, cap is {self.max_eig_rows}"
            )


def default_budget() -> TensorBudget:
    raw = os.environ.get("HLAB_BUDGET")
    if not raw:
        return TensorBudget()
    bad = f"HLAB_BUDGET must be a positive integer element count, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(bad) from None
    if cap < 1:
        raise ValueError(bad)
    return TensorBudget(max_elements=cap)
