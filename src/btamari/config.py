"""Run-time configuration shared by enumeration-heavy operations."""

from __future__ import annotations

import os

DEFAULT_CAP = 2_000_000
CAP_ENV_VAR = "TAMARI_B_CAP"

# When set, construction-time cross-checks recompute key objects a second,
# independent way (inversion order by word conjugation, iota by the algebraic
# product) and assert agreement.
debug_crosschecks = False


def set_debug_crosschecks(value: bool):
    global debug_crosschecks
    debug_crosschecks = bool(value)


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap if given, else the environment override, else the default."""
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
    if cap < 1:
        raise ValueError(f"enumeration cap must be at least 1, got {cap}")
    return cap

