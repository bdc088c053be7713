"""SR-IOV physical/virtual functions with the vendor's reset semantics.

Problem 1 of the paper: the VF count "can only be toggled between zero and
a fixed maximum" — moving between two non-zero counts requires destroying
every VF first, and each enabled VF permanently claims 63 queues x 5000 MTU
= 2.4 GB of host memory, so overprovisioning is ruinous.
"""

from repro import calibration
from repro.pcie.device import PcieFunction


class SriovError(Exception):
    """Invalid SR-IOV reconfiguration."""


class VirtualFunction(PcieFunction):
    """An SR-IOV VF: its own BDF, BARs, and fixed memory footprint."""

    def __init__(self, name, bdf, parent_pf):
        super().__init__(name, bdf)
        self.parent_pf = parent_pf
        self.memory_bytes = calibration.VF_MEMORY_BYTES
        self.gdr_enabled = False
        self.assigned_to = None  # container name once passed through

    def __repr__(self):
        return "VirtualFunction(%r, bdf=%s, gdr=%s)" % (
            self.name,
            self.bdf,
            self.gdr_enabled,
        )


class SriovManager:
    """Manages the VFs of one RNIC physical function."""

    def __init__(self, pf_name, fabric, switch, max_vfs=64):
        self.pf_name = pf_name
        self.fabric = fabric
        self.switch = switch
        self.max_vfs = max_vfs
        self.vfs = []
        self.resets = 0

    @property
    def num_vfs(self):
        return len(self.vfs)

    @property
    def memory_overhead_bytes(self):
        """Host memory claimed by the enabled VFs (2.4 GB each)."""
        return sum(vf.memory_bytes for vf in self.vfs)

    def set_num_vfs(self, count):
        """Reconfigure the VF count with the vendor's constraint:

        only 0 -> N and N -> 0 transitions are supported.  Growing or
        shrinking a non-zero count raises — callers must ``reset()`` first,
        tearing down every existing VF (and every container using one).
        """
        if count < 0 or count > self.max_vfs:
            raise SriovError(
                "VF count %d outside [0, %d] for %s" % (count, self.max_vfs, self.pf_name)
            )
        if self.num_vfs != 0 and count != 0:
            raise SriovError(
                "cannot change VF count %d -> %d without a full reset "
                "(vendor limitation, paper problem 1)" % (self.num_vfs, count)
            )
        if count == 0:
            self.reset()
            return []
        for index in range(count):
            vf = VirtualFunction(
                "%s-vf%d" % (self.pf_name, index),
                self.fabric.new_bdf(),
                self.pf_name,
            )
            vf.add_bar(
                self.fabric.hpa_map.allocate(1 << 20, _mmio_kind(), alignment=4096)
            )
            self.switch.attach(vf)
            self.vfs.append(vf)
        return list(self.vfs)

    def reset(self):
        """Tear down all VFs (the only way to change a non-zero count)."""
        for vf in self.vfs:
            if vf.gdr_enabled:
                self.switch.unregister_lut(vf.bdf)
            self.switch.detach(vf)
            for bar in vf.bars:
                self.fabric.hpa_map.free(bar)
        self.vfs.clear()
        self.resets += 1

    def enable_gdr(self, vf):
        """Register the VF's BDF in the PCIe switch LUT.

        Raises :class:`repro.pcie.LutCapacityError` when the LUT is full —
        the problem-3 failure mode.
        """
        if vf not in self.vfs:
            raise SriovError("VF %r does not belong to %s" % (vf.name, self.pf_name))
        self.switch.register_lut(vf.bdf)
        vf.gdr_enabled = True
        return vf


def _mmio_kind():
    from repro.memory.address import MemoryKind

    return MemoryKind.DEVICE_MMIO
