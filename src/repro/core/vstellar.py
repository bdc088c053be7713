"""vStellar: the hybrid para-virtualized RDMA device (Section 4).

Each secure container gets a vStellar device.  Control-path verbs
(QP create/modify, MR registration) travel over virtio to a host backend
that applies security and virtualization policy; the data path is
direct-mapped — the container writes the doorbell and the RNIC reads and
writes guest memory straight through the eMTT, so RDMA performance matches
bare metal (Figure 13).

Isolation (Section 9): every device gets a standalone doorbell register
page, its own protection domain, and its own IOMMU domain selected by
PASID — all virtual devices share the parent's BDF, so neither new switch
LUT entries nor new bus numbers are needed (no problem-3 exposure).
"""

import itertools

from repro import calibration
from repro.core.emtt import EmttRegistrar
from repro.memory.address import MemoryKind
from repro.rnic.datapath import DatapathMode
from repro.rnic.rnic import BaseRnic
from repro.rnic.verbs import VerbsError
from repro.virt.virtio import ShmRegion, VirtioDevice, VirtioDeviceType


class VStellarError(VerbsError):
    """Invalid vStellar device operation."""


class VStellarDevice(BaseRnic):
    """A virtual Stellar RNIC living inside one secure container."""

    def __init__(self, parent, container, doorbell_region, pasid,
                 use_shm_doorbell=True, vdb_gpa=None):
        super().__init__(
            name="vstellar-%s-%d" % (container.name, pasid),
            mode=DatapathMode.DIRECT,
            fabric=parent.fabric,
            function=parent.function,
            ports=parent.ports,
            port_rate=parent.port_rate,
        )
        self.parent = parent
        self.container = container
        self.doorbell_region = doorbell_region
        self.pasid = pasid
        self.use_shm_doorbell = use_shm_doorbell
        self.vdb_gpa = vdb_gpa
        self.default_pd = self.alloc_pd(container.name)
        self.emtt = EmttRegistrar(self)
        self.virtio = VirtioDevice(
            VirtioDeviceType.VSTELLAR, backend=self._control_backend
        )
        self.doorbell_rings = 0
        if use_shm_doorbell:
            # Figure 5f fix: the vDB lives in virtio shm I/O space, outside
            # guest-physical memory, so PVDMA blocks can never cover it.
            self.virtio.add_shm_region(
                ShmRegion("vdb", doorbell_region.length, doorbell_region)
            )
        container.add_virtio_device(self.virtio)

    # -- control path (virtio-intercepted) ----------------------------------

    def _control_backend(self, request):
        """Host-side handler for control commands.

        This is where the hypervisor enforces policy before touching real
        RNIC state; the guest never programs the hardware directly.
        """
        op = request.op
        payload = request.payload
        if op == "create_qp":
            qp = self.create_qp(payload.get("pd", self.default_pd))
            return {"qpn": qp.qpn}
        if op == "reg_mr_host":
            mr = self.emtt.register_host(
                payload.get("pd", self.default_pd),
                self.container,
                payload["gva_region"],
            )
            return {"lkey": mr.lkey, "rkey": mr.rkey}
        if op == "reg_mr_gpu":
            mr = self.emtt.register_gpu(
                payload.get("pd", self.default_pd),
                payload["gpu"],
                payload["offset"],
                payload["length"],
            )
            return {"lkey": mr.lkey, "rkey": mr.rkey}
        if op == "query_device":
            return {
                "max_qp": 64 * 1024,
                "ports": self.ports,
                "port_rate": self.port_rate,
            }
        raise VStellarError("unknown control op %r" % op)

    # -- data path -----------------------------------------------------------

    def ring_doorbell(self):
        """Data-path doorbell write: direct MMIO, no virtio round trip."""
        self.doorbell_rings += 1
        return self.doorbell_region.start

    def enable_gpudirect_async(self, hypervisor, gpu):
        """Let the GPU ring this device's doorbell via DMA (Section 5).

        The shm-region fix moves the vDB out of guest-physical space,
        which breaks GPUDirect Async (the GPU can only DMA through the
        IOMMU).  The paper's remedy — reproduced here — is a hypervisor
        mechanism that explicitly registers the doorbell's I/O memory in
        the GPU's IOMMU page table when needed.  Returns the device
        address the GPU should target.
        """
        if not self.use_shm_doorbell:
            raise VStellarError(
                "GPUDirect Async registration applies to shm doorbells; a "
                "GPA-mapped vDB is already IOMMU-reachable (and hazardous)"
            )
        da = (1 << 46) + self.pasid * calibration.DOORBELL_PAGE_BYTES
        hypervisor.iommu.map(
            self.container.domain_name,
            da,
            self.doorbell_region.start,
            self.doorbell_region.length,
            kind=MemoryKind.DEVICE_MMIO,
            pin=False,
        )
        if self.fabric is not None and gpu.bdf is not None:
            self.fabric.root_complex.bind_domain(
                gpu.bdf, self.container.domain_name
            )
        self.gda_doorbell_da = da
        return da

    def reg_mr_host(self, gva_region, pd=None):
        """Register a guest buffer (control path; returns the MR handle)."""
        return self.emtt.register_host(
            pd if pd is not None else self.default_pd, self.container, gva_region
        )

    def reg_mr_gpu(self, gpu, offset, length, pd=None):
        """Register GPU memory for GDR (eMTT owner bit set to GPU)."""
        return self.emtt.register_gpu(
            pd if pd is not None else self.default_pd, gpu, offset, length
        )

    def rdma_write(self, qp, wr_id, local_mr, local_va, length, remote_rkey,
                   remote_va):
        self.ring_doorbell()
        before = self.bytes_sent
        latency = super().rdma_write(
            qp, wr_id, local_mr, local_va, length, remote_rkey, remote_va
        )
        # Aggregate successful traffic into the physical NIC's counters.
        self.parent.vdev_bytes_sent += self.bytes_sent - before
        return latency

    def snapshot(self):
        snap = super().snapshot()
        snap["doorbell_rings"] = self.doorbell_rings
        snap["pasid"] = self.pasid
        return snap

    def __repr__(self):
        return "VStellarDevice(%r, pasid=%d, shm_vdb=%s)" % (
            self.name,
            self.pasid,
            self.use_shm_doorbell,
        )


class StellarRnic(BaseRnic):
    """The physical 400G Stellar RNIC: eMTT datapath + vDevice factory."""

    def __init__(self, name, fabric, function,
                 ports=calibration.RNIC_PORTS,
                 port_rate=calibration.RNIC_PORT_RATE):
        super().__init__(
            name=name,
            mode=DatapathMode.DIRECT,
            fabric=fabric,
            function=function,
            ports=ports,
            port_rate=port_rate,
        )
        self.max_vdevices = calibration.STELLAR_MAX_VDEVICES
        self.vdevices = {}
        self._pasids = itertools.count(1)
        self._doorbell_cursor = 0
        self.vdev_bytes_sent = 0
        self.emtt = EmttRegistrar(self)

    def _allocate_doorbell(self):
        """A standalone 4 KiB register page in the RNIC BAR per device."""
        bar = self.function.bars[0]
        offset = self._doorbell_cursor
        if offset + calibration.DOORBELL_PAGE_BYTES > bar.length:
            raise VStellarError("%s is out of doorbell register space" % self.name)
        self._doorbell_cursor += calibration.DOORBELL_PAGE_BYTES
        region = bar.subregion(offset, calibration.DOORBELL_PAGE_BYTES)
        region.kind = MemoryKind.DEVICE_MMIO
        return region

    def create_vdevice(self, container, use_shm_doorbell=True, vdb_gpa=None,
                       hypervisor=None):
        """Create a vStellar device for a container.

        Returns ``(device, seconds)`` — creation takes ~1.5 s (matching
        MasQ) and no PCIe reset, unlike SR-IOV VF reconfiguration.
        """
        if len(self.vdevices) >= self.max_vdevices:
            raise VStellarError(
                "%s is at its vDevice limit (%d)" % (self.name, self.max_vdevices)
            )
        doorbell = self._allocate_doorbell()
        pasid = next(self._pasids)
        device = VStellarDevice(
            self,
            container,
            doorbell,
            pasid,
            use_shm_doorbell=use_shm_doorbell,
            vdb_gpa=vdb_gpa,
        )
        if not use_shm_doorbell:
            # Legacy layout used for the Figure 5 hazard study: the vDB is
            # direct-mapped into guest-physical space.
            if hypervisor is None or vdb_gpa is None:
                raise VStellarError(
                    "GPA-mapped doorbells need a hypervisor and a vdb_gpa"
                )
            hypervisor.mmu.register_direct_map(
                container.name, vdb_gpa, doorbell, overwrite=True
            )
        if self.fabric is not None:
            self.fabric.root_complex.bind_domain(
                self.function.bdf, container.domain_name, pasid=pasid
            )
        self.vdevices[pasid] = device
        return device, calibration.VSTELLAR_DEVICE_CREATE_SECONDS

    def destroy_vdevice(self, device):
        """Destroy a vDevice; seconds-scale, no host reset, no VF teardown."""
        if device.pasid not in self.vdevices:
            raise VStellarError("%r is not a device of %s" % (device.name, self.name))
        del self.vdevices[device.pasid]
        if self.fabric is not None:
            self.fabric.root_complex.unbind_domain(
                self.function.bdf, pasid=device.pasid
            )

    def snapshot(self):
        snap = super().snapshot()
        snap["vdevices"] = len(self.vdevices)
        snap["vdev_bytes_sent"] = self.vdev_bytes_sent
        return snap

    def register_metrics(self, registry, prefix=None):
        """Register the physical NIC and every live vDevice."""
        super().register_metrics(registry, prefix=prefix)
        for device in self.vdevices.values():
            device.register_metrics(registry)
        return registry

    def __repr__(self):
        return "StellarRnic(%r, vdevices=%d/%d)" % (
            self.name,
            len(self.vdevices),
            self.max_vdevices,
        )
