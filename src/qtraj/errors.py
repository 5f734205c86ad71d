"""Exception hierarchy shared by all engine modules.

Each class carries the process exit code the command-line front end maps it
to, so engine code never has to know about the CLI.  check_memory is the one
size rule of the engines and the CLI, and the only reader of physical_memory.
"""

import math
import os


class SimulationError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(SimulationError):
    """Invalid configuration or input (bad parameter, broken invariant)."""

    exit_code = 2


class NumericError(SimulationError):
    """Numerical degeneracy or instability (zero likelihood, blow-up)."""

    exit_code = 3


class CapacityError(SimulationError):
    """Problem size beyond the supported desk-scale bounds."""

    exit_code = 4


def physical_memory() -> int:
    """Bytes of physical memory, the bound of every result and kernel allocation."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(name: str, count: int, unit: float, items: str, fixed: int = 0) -> int:
    """The one size rule: a ValidationError unless count items of unit bytes
    (rounded up) and fixed bytes fit in physical memory, failed by NaN and
    inf.  Returns the largest count that fits, which the message names with
    count and the bytes per item."""
    memory = physical_memory()
    per = math.ceil(unit) if math.isfinite(unit) else unit
    fit = (memory - fixed) // per if math.isfinite(per) and fixed <= memory else 0
    if not count * per + fixed <= memory:
        beyond = f" beyond {fixed} fixed bytes" if fixed else ""
        raise ValidationError(f"{name} must be at most {fit} for {per:.15g}-byte {items}"
                              f"{beyond}, got {count}")
    return fit
