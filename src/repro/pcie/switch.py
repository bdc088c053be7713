"""PCIe switch with a bounded Look-Up Table and ACS policy.

Two paper mechanisms live here:

* **LUT capacity (problem 3)** — a requester BDF must be registered in the
  switch LUT before the switch will route its peer-to-peer traffic; on one
  production server model the LUT holds only 32 BDFs, so dense VF
  deployments cannot all enable GDR.
* **ACS Direct Translated P2P (Figure 7)** — every switch runs with ACS DT
  enabled: a TLP whose AT field says ``TRANSLATED`` is routed straight to
  the peer BAR; untranslated TLPs are redirected upstream to the root
  complex.
"""

from repro import calibration
from repro.pcie.device import PcieError

#: One store-and-forward hop through a PCIe switch.
PCIE_HOP_SECONDS = 150e-9


class LutCapacityError(PcieError):
    """The switch LUT is full; another BDF cannot enable P2P/GDR."""


class PcieSwitch:
    """A PCIe switch: downstream functions, a LUT, and ACS settings."""

    def __init__(self, name, lut_capacity=calibration.PCIE_SWITCH_LUT_CAPACITY):
        self.name = name
        self.lut_capacity = lut_capacity
        self.upstream = None  # RootComplex or parent switch
        self._functions = {}  # bdf -> PcieFunction
        self._lut = set()
        self.p2p_tlps = 0
        self.upstream_tlps = 0

    # -- fabric assembly ----------------------------------------------------

    def attach(self, function):
        if function.bdf in self._functions:
            raise PcieError("BDF %s already attached to %s" % (function.bdf, self.name))
        self._functions[function.bdf] = function
        function.port = self
        return function

    def detach(self, function):
        self._functions.pop(function.bdf, None)
        self._lut.discard(function.bdf)
        function.port = None

    def snapshot(self):
        """Public counter snapshot: LUT pressure and routed-TLP counts."""
        return {
            "name": self.name,
            "functions": len(self._functions),
            "lut_used": self.lut_capacity - self.lut_free,
            "lut_capacity": self.lut_capacity,
            "p2p_tlps": self.p2p_tlps,
            "upstream_tlps": self.upstream_tlps,
        }

    # -- LUT management -----------------------------------------------------

    def register_lut(self, bdf):
        """Enable P2P routing for a requester BDF; bounded by capacity."""
        if bdf in self._lut:
            return
        if len(self._lut) >= self.lut_capacity:
            raise LutCapacityError(
                "switch %s LUT full (%d entries); cannot enable GDR for %s"
                % (self.name, self.lut_capacity, bdf)
            )
        self._lut.add(bdf)

    def unregister_lut(self, bdf):
        self._lut.discard(bdf)

    def lut_contains(self, bdf):
        return bdf in self._lut

    @property
    def lut_free(self):
        return self.lut_capacity - len(self._lut)

    # -- routing ------------------------------------------------------------

    def find_claimant(self, address, length):
        """Downstream function whose BAR covers the address, if any."""
        for function in self._functions.values():
            if function.claims(address, length) is not None:
                return function
        return None

    def route(self, tlp, path, latency):
        """Route a TLP arriving at this switch from a downstream port.

        Returns ``(delivered_function_or_None, path, latency)``; ``None``
        means the TLP was forwarded upstream and the caller (fabric) must
        continue at :attr:`upstream`.
        """
        path.append(self.name)
        latency += PCIE_HOP_SECONDS
        claimant = self.find_claimant(tlp.address, tlp.length)
        # Untranslated P2P would bypass the IOMMU; ACS forces it up.
        if claimant is not None and tlp.is_translated:
            if not self.lut_contains(tlp.requester):
                raise PcieError(
                    "requester %s not in %s LUT; P2P routing unavailable"
                    % (tlp.requester, self.name)
                )
            self.p2p_tlps += 1
            path.append(claimant.name)
            latency += PCIE_HOP_SECONDS
            claimant.on_tlp(tlp)
            return claimant, path, latency
        self.upstream_tlps += 1
        return None, path, latency

    def __repr__(self):
        return "PcieSwitch(%r, fns=%d, lut=%d/%d)" % (
            self.name,
            len(self._functions),
            len(self._lut),
            self.lut_capacity,
        )
