"""Exception hierarchy for the pSyncPIM reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch the whole family with a single ``except`` clause while the
sub-classes keep failure modes distinguishable in tests and tooling.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An architectural configuration is internally inconsistent."""


class FormatError(ReproError):
    """A sparse matrix/vector container or file is malformed."""


class TimingError(ReproError):
    """A DRAM command violates protocol state (e.g. RD to a closed row)."""


class EncodingError(ReproError):
    """A PIM instruction cannot be encoded into / decoded from 32 bits."""


class AssemblerError(ReproError):
    """PIM assembly text is syntactically or semantically invalid."""


class ExecutionError(ReproError):
    """A processing unit reached an illegal state while running a kernel."""


class CapacityError(ReproError):
    """Data does not fit the hardware resource it was mapped to."""


class MappingError(ReproError):
    """A matrix/vector cannot be laid out onto banks as requested."""


class SolverError(ReproError):
    """An iterative solver failed to converge or received bad operands."""


class CheckError(ReproError):
    """A conformance check failed (protocol violation, oracle divergence,
    golden-trace mismatch)."""
