"""Exception types shared across the package."""


class RcgibbsError(Exception):
    """Base class for all package errors."""


class TooLargeError(RcgibbsError):
    """Requested exact computation exceeds one of the resource caps."""


# Every resource cap, by what it counts. The exact objects grow exponentially
# with the region, so the kernel that allocates the work checks its count
# here first, and the CLI turns the error into exit code 3.
CAPS = {
    "states": 1 << 24,  # gibbs.config_weights: configurations weighed at once
    "two-copy pairs": 1 << 24,  # twocopy.PairWalk: pairs of a full walk
    "pattern pairs": 1 << 20,  # percolation._pattern_records: pairs of a full walk
    "bonds": 62,  # percolation._pattern_records: patterns are int64 bitmasks
    "pattern leaves": 1 << 22,  # percolation._pattern_records: leaves expanded in one call, before any labelling
    "heat-bath table cells": 1 << 24,  # sampling._generic_heat_bath
    "heat-bath values": 127,  # sampling._generic_heat_bath: spin values per site
    "reconstructed states": 1 << 20,  # rcr.reconstruct
    "assignment states": 1 << 16,  # rcr.assignment_measure: one bitset bit per state
    "assignments": 10**7,  # rcr.assignment_measure
    "joint states": 1 << 12,  # rcr.joint_spin_bond
    "spin-bond pairs": 10**6,  # rcr.joint_spin_bond: the joint law's support
    "J-grid points": 1 << 16,  # cli (exp cayley --J-grid): couplings evaluated, before the grid is built
}


def check_cap(name: str, count: int) -> None:
    """Raise TooLargeError when count exceeds the cap called name."""
    if count > CAPS[name]:
        raise TooLargeError(f"{count} {name} exceeds the cap of {CAPS[name]}")


class AllForbiddenError(RcgibbsError):
    """Every configuration violates a hard constraint (partition function is zero)."""


class ZeroSliceError(RcgibbsError):
    """Conditioning on an overlap configuration of probability zero."""


class InfeasibleError(RcgibbsError):
    """No nonnegative normalized solution to a representation system."""


class NonSymmetrizableError(RcgibbsError):
    """A base subset is not level-respecting after overlap reflection."""


class UsageError(RcgibbsError):
    """Invalid command line arguments or malformed input file."""
