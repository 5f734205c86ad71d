"""Exception hierarchy shared by all engine modules.

Each class carries the process exit code the command-line front end maps it
to, so engine code never has to know about the CLI.  physical_memory is the
bound every size check of the engines and the CLI compares against.
"""

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
