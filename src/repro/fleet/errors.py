"""Errors raised by the fleet population engine."""

from __future__ import annotations


class FleetError(Exception):
    """Base class for fleet engine failures."""


class UnknownStudyError(FleetError):
    """A study name that is not in the registry."""


class SpoolMismatchError(FleetError):
    """A resume directory was produced by a different fleet configuration.

    Resuming a 1000-machine seed-7 run from a spool written by a
    500-machine seed-9 run would silently mix populations; the manifest
    check turns that into a loud error instead.
    """


class SpoolVersionError(SpoolMismatchError):
    """A spool segment (or manifest) was written by a different spool format.

    Old pickle-era spools used to die inside ``pickle.load`` with an
    opaque unpickling traceback; the versioned record header turns that
    into this error, which says exactly which format was found, which one
    this build speaks, and what to do about it.
    """


class RecordFormatError(FleetError):
    """A result record's bytes do not parse under the record codec."""
