"""PCIe Scalable Functions: lightweight, dynamic virtual devices.

Stellar uses SFs instead of VFs for the TCP side (Section 4): they can be
created and destroyed at runtime, share the parent function's BDF (so they
consume no switch-LUT entries), and have a tiny memory footprint.
"""

import itertools

from repro.sim.units import MiB


class SfError(Exception):
    """Invalid scalable-function operation."""


#: SF creation is milliseconds of firmware work, not a host reset.
SF_CREATE_SECONDS = 50e-3

#: Per-SF state (queues, contexts) — megabytes, not the VF's 2.4 GB.
SF_MEMORY_BYTES = 8 * MiB


class ScalableFunction:
    """One SF slice of a parent PCIe function."""

    _ids = itertools.count()

    def __init__(self, parent_name, parent_bdf, memory_bytes=SF_MEMORY_BYTES):
        self.sf_index = next(ScalableFunction._ids)
        self.name = "%s-sf%d" % (parent_name, self.sf_index)
        #: SFs share the parent's BDF — no LUT entry, no new bus number.
        self.bdf = parent_bdf
        self.memory_bytes = memory_bytes
        self.assigned_to = None

    def __repr__(self):
        return "ScalableFunction(%r, bdf=%s)" % (self.name, self.bdf)


class ScalableFunctionManager:
    """Dynamic SF lifecycle on one parent function."""

    def __init__(self, parent_name, parent_bdf, max_sfs=1024):
        self.parent_name = parent_name
        self.parent_bdf = parent_bdf
        self.max_sfs = max_sfs
        self.sfs = []
        self.total_create_seconds = 0.0

    @property
    def num_sfs(self):
        return len(self.sfs)

    def create(self):
        """Create one SF; unlike VFs this never requires a reset."""
        if self.num_sfs >= self.max_sfs:
            raise SfError(
                "%s is at its SF limit (%d)" % (self.parent_name, self.max_sfs)
            )
        sf = ScalableFunction(self.parent_name, self.parent_bdf)
        self.sfs.append(sf)
        self.total_create_seconds += SF_CREATE_SECONDS
        return sf

    def destroy(self, sf):
        try:
            self.sfs.remove(sf)
        except ValueError:
            raise SfError("SF %r does not belong to %s" % (sf.name, self.parent_name))

    def __repr__(self):
        return "ScalableFunctionManager(%r, %d SFs)" % (self.parent_name, self.num_sfs)
