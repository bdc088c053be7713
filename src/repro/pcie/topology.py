"""PCIe fabric assembly and end-to-end TLP routing.

Builds the server shape used throughout the paper's evaluation: one root
complex, four PCIe switches, each hosting one RNIC and two GPUs (8 GPUs +
4 RNICs per server), and a host DRAM target behind the RC.  The fabric is
parameterized so tests can build degenerate shapes.
"""

from repro import calibration
from repro.memory.address import AddressSpace, MemoryKind, PhysicalMemoryMap
from repro.memory.iommu import Iommu
from repro.pcie.bdf import BdfAllocator
from repro.pcie.device import GpuDevice, HostMemoryTarget, PcieError, PcieFunction
from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import PcieSwitch
from repro.sim.units import GiB

#: Host physical address width, and the BAR size of a generic endpoint.
_HPA_BITS = 48
_ENDPOINT_BAR_BYTES = 32 << 20


class PcieFabric:
    """A complete single-host PCIe subsystem."""

    def __init__(self, host_memory_bytes=256 * GiB, iommu=None):
        self.hpa_map = PhysicalMemoryMap(AddressSpace.HPA, 1 << _HPA_BITS)
        dram = self.hpa_map.allocate(host_memory_bytes, MemoryKind.HOST_DRAM,
                                     alignment=1 << 30)
        self.host_memory = HostMemoryTarget(dram)
        self._dram = dram
        self._dram_cursor = dram.start
        self.iommu = iommu if iommu is not None else Iommu()
        self.root_complex = RootComplex(self.iommu, self.host_memory)
        self.bdf_allocator = BdfAllocator()
        self.switches = []
        self._functions = {}  # Bdf -> PcieFunction

    # -- telemetry ------------------------------------------------------

    def snapshot(self):
        """Public fabric-wide counter snapshot (the pcm-iio analog).

        Shape matches :func:`repro.analysis.diagnostics.fabric_report`:
        per-switch LUT/TLP counters plus root-complex and IOTLB health.
        """
        rc = self.root_complex
        snap = {
            "switches": [switch.snapshot() for switch in self.switches],
            "rc_tlps": rc.tlps_processed,
            "rc_p2p_reflected_tlps": rc.p2p_reflected_tlps,
            "rc_p2p_reflected_bytes": rc.p2p_reflected_bytes,
            "iotlb_hit_rate": self.iommu.iotlb.hit_rate,
            "iotlb_size": len(self.iommu.iotlb),
        }
        return snap

    def register_metrics(self, registry, prefix="pcie"):
        """Expose switch/RC counters under ``pcie.*`` and the IOMMU under
        ``mem.iommu.*``."""
        registry.add_provider(prefix + ".rc", self.root_complex.snapshot)
        registry.add_provider(
            prefix + ".switch",
            lambda: {switch.name: switch.snapshot() for switch in self.switches},
        )
        self.iommu.register_metrics(registry)
        return registry

    # -- assembly -------------------------------------------------------

    def add_switch(self, name=None, lut_capacity=None):
        if name is None:
            name = "pcie-sw%d" % len(self.switches)
        if lut_capacity is None:
            lut_capacity = calibration.PCIE_SWITCH_LUT_CAPACITY
        switch = PcieSwitch(name, lut_capacity=lut_capacity)
        self.root_complex.add_port(switch)
        self.switches.append(switch)
        return switch

    def new_bdf(self, bus=None):
        return self.bdf_allocator.allocate(bus=bus)

    def attach_function(self, switch, function):
        switch.attach(function)
        self._functions[function.bdf] = function
        return function

    def add_gpu(self, switch, name, hbm_bytes=80 * GiB):
        gpu = GpuDevice(name, self.new_bdf(), hbm_bytes)
        gpu.install_bars(self.hpa_map)
        return self.attach_function(switch, gpu)

    def add_endpoint(self, switch, name):
        """Attach a generic endpoint (e.g. an RNIC function) with one BAR."""
        function = PcieFunction(name, self.new_bdf())
        function.add_bar(
            self.hpa_map.allocate(_ENDPOINT_BAR_BYTES, MemoryKind.DEVICE_MMIO,
                                  alignment=4096)
        )
        return self.attach_function(switch, function)

    def function(self, bdf):
        try:
            return self._functions[bdf]
        except KeyError:
            raise PcieError("no function with BDF %s" % bdf)

    def switch_of(self, bdf):
        """The switch a function hangs off."""
        function = self.function(bdf)
        if function.port is None:
            raise PcieError("function %s is not attached" % bdf)
        return function.port

    def allocate_host_buffer(self, length, alignment=4096):
        """Carve a buffer out of the host DRAM window; returns an HPA region."""
        from repro.memory.address import MemoryRegion, align_up

        start = align_up(self._dram_cursor, alignment)
        if start + length > self._dram.end:
            raise PcieError(
                "host DRAM exhausted: need %d bytes at 0x%x" % (length, start)
            )
        self._dram_cursor = start + length
        return MemoryRegion(start, length, AddressSpace.HPA, MemoryKind.HOST_DRAM)

    # -- routing ----------------------------------------------------------

    def route(self, tlp):
        """Route a TLP from its requester through the fabric to delivery.

        Implements the Figure 7 semantics: translated TLPs short-circuit at
        the first switch whose downstream BAR matches; untranslated TLPs
        climb to the root complex for IOMMU translation.
        """
        origin_switch = self.switch_of(tlp.requester)
        destination, path, latency = origin_switch.route(tlp, [], 0.0)
        if destination is not None:
            from repro.pcie.tlp import Delivery

            return Delivery(destination, path, latency, tlp.address)
        destination, path, latency, final = self.root_complex.receive(
            tlp, path, latency
        )
        from repro.pcie.tlp import Delivery

        return Delivery(destination, path, latency, final)

    def __repr__(self):
        return "PcieFabric(switches=%d, functions=%d)" % (
            len(self.switches),
            len(self._functions),
        )


def build_ai_server_fabric(
    host_memory_bytes=2 * 1024 * GiB,
    gpus=calibration.SERVER_GPUS,
    rnics=calibration.SERVER_RNICS,
    pcie_switches=calibration.SERVER_PCIE_SWITCHES,
    lut_capacity=calibration.PCIE_SWITCH_LUT_CAPACITY,
    gpu_hbm_bytes=80 * GiB,
):
    """Build the paper's AI server: 4 switches x (1 RNIC + 2 GPUs).

    Returns ``(fabric, rnic_functions, gpu_devices)`` with devices listed
    in rail order (RNIC *i* shares a switch with GPUs *2i* and *2i+1*).
    """
    if gpus % pcie_switches or rnics != pcie_switches:
        raise PcieError(
            "server shape must evenly spread %d GPUs and %d RNICs over %d switches"
            % (gpus, rnics, pcie_switches)
        )
    fabric = PcieFabric(host_memory_bytes=host_memory_bytes)
    rnic_functions = []
    gpu_devices = []
    gpus_per_switch = gpus // pcie_switches
    for index in range(pcie_switches):
        switch = fabric.add_switch(lut_capacity=lut_capacity)
        rnic_functions.append(fabric.add_endpoint(switch, "rnic%d" % index))
        for g in range(gpus_per_switch):
            gpu_devices.append(
                fabric.add_gpu(
                    switch,
                    "gpu%d" % (index * gpus_per_switch + g),
                    hbm_bytes=gpu_hbm_bytes,
                )
            )
    return fabric, rnic_functions, gpu_devices
