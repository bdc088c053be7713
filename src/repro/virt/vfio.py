"""VFIO device passthrough with the full-pin requirement.

VFIO maps a PCIe function's BARs into the guest and programs the IOMMU so
the device can DMA into guest memory.  In a RunD container the GPA->HPA
mapping must never change underneath the device, so the hypervisor pins
*all* guest memory up front (Section 3.1 problem 2) — the minute-level
start-up cost PVDMA later removes.
"""



class VfioError(Exception):
    """Invalid passthrough operation."""


class VfioAttachment:
    """Record of one device passed through to one container."""

    __slots__ = ("function", "container_name", "guest_bar_gpas", "pin_seconds")

    def __init__(self, function, container_name, guest_bar_gpas, pin_seconds):
        self.function = function
        self.container_name = container_name
        self.guest_bar_gpas = guest_bar_gpas
        self.pin_seconds = pin_seconds

    def __repr__(self):
        return "VfioAttachment(%s -> %s, pin=%.1fs)" % (
            self.function.name,
            self.container_name,
            self.pin_seconds,
        )


class VfioDriver:
    """Passes PCIe functions through to RunD containers."""

    def __init__(self, hypervisor):
        self.hypervisor = hypervisor
        self.attachments = []

    def attach(self, container, function):
        """Assign ``function`` to ``container``.

        Maps each BAR into the guest GPA space via the MMU, binds the
        function's BDF to the container's IOMMU domain, and — the expensive
        part — pins the container's entire memory so GPA->HPA can never
        shift under the device's feet.  Returns the attachment record; the
        pin cost is added to the container's boot-time ledger.
        """
        if getattr(function, "assigned_to", None):
            raise VfioError(
                "%s is already assigned to %s" % (function.name, function.assigned_to)
            )
        guest_bar_gpas = {}
        for bar in function.bars:
            gpa = container.allocate_mmio_window(bar.length)
            self.hypervisor.mmu.register_direct_map(container.name, gpa, bar)
            guest_bar_gpas[bar.start] = gpa
        self.hypervisor.bind_device_domain(container, function)
        pin_seconds = self.hypervisor.pin_all_guest_memory(container)
        if hasattr(function, "assigned_to"):
            function.assigned_to = container.name
        attachment = VfioAttachment(
            function, container.name, guest_bar_gpas, pin_seconds
        )
        self.attachments.append(attachment)
        container.vfio_attachments.append(attachment)
        return attachment

