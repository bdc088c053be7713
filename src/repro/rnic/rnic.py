"""The base RNIC: verbs front-end, MTT-backed datapath, DMA emission.

Every NIC in the repo derives from :class:`BaseRnic`: the bare-metal
Stellar RNIC, vStellar virtual devices, and the legacy CX6/CX7-style
baselines (which differ only in datapath mode and steering).
"""

import itertools

from repro import calibration
from repro.pcie.atc import DeviceAtc
from repro.pcie.tlp import Tlp
from repro.rnic.datapath import DatapathMode, RnicDatapath
from repro.rnic.mtt import Mtt
from repro.rnic.verbs import (
    CompletionQueue,
    MemoryRegionHandle,
    Opcode,
    ProtectionDomain,
    QueuePair,
    VerbsError,
    WcStatus,
    WorkCompletion,
)
from repro.sim.units import transfer_time


class BaseRnic:
    """A (possibly virtualized) RDMA NIC."""

    _ids = itertools.count()

    def __init__(
        self,
        name=None,
        mode=DatapathMode.DIRECT,
        fabric=None,
        function=None,
        iommu_domain=None,
        ports=calibration.RNIC_PORTS,
        port_rate=calibration.RNIC_PORT_RATE,
        atc_capacity=calibration.ATC_CAPACITY_PAGES,
        page_size=calibration.GDR_PAGE_BYTES,
    ):
        self.name = name if name is not None else "rnic%d" % next(BaseRnic._ids)
        self.fabric = fabric
        self.function = function
        self.iommu_domain = iommu_domain
        #: PASID stamped on emitted TLPs (virtual devices sharing a BDF).
        self.pasid = None
        self.ports = ports
        self.port_rate = port_rate
        self.page_size = page_size
        self.mtt = Mtt()
        atc = None
        if mode is DatapathMode.ATS_ATC:
            if fabric is None or iommu_domain is None:
                raise ValueError("ATS_ATC mode needs a fabric and an IOMMU domain")
            atc = DeviceAtc(
                fabric.iommu,
                iommu_domain,
                capacity_pages=atc_capacity,
                page_size=page_size,
                name="%s-ATC" % self.name,
            )
        self.datapath = RnicDatapath(self.mtt, mode, atc=atc)
        self._mrs_by_rkey = {}
        self._qps = {}
        self.ops_executed = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- capability surface ---------------------------------------------

    @property
    def mode(self):
        return self.datapath.mode

    @property
    def atc(self):
        return self.datapath.atc

    @property
    def wire_rate(self):
        """Aggregate line rate across ports (bits/second)."""
        return self.ports * self.port_rate

    # -- telemetry --------------------------------------------------------

    def snapshot(self):
        """Public counter snapshot (the Neohost per-NIC counter page).

        Subclasses extend this with their own counters; diagnostics and the
        metrics registry both consume it, so nothing needs to reach into
        private attributes.
        """
        snap = {
            "name": self.name,
            "mode": self.mode.value,
            "ops_executed": self.ops_executed,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "mtt_entries": len(self.mtt),
            "mtt_lookups": self.mtt.lookups,
            "qps": len(self._qps),
            "mrs": len(self._mrs_by_rkey),
        }
        if self.atc is not None:
            snap["atc_hit_rate"] = self.atc.cache.hit_rate
            snap["atc_evictions"] = self.atc.cache.evictions
        return snap

    def register_metrics(self, registry, prefix=None):
        """Expose this NIC's counters under ``rnic.<name>.*``."""
        registry.add_provider(prefix or "rnic.%s" % self.name, self.snapshot)
        return registry

    # -- verbs ------------------------------------------------------------

    def alloc_pd(self, owner):
        return ProtectionDomain(owner)

    def create_cq(self, depth=4096):
        return CompletionQueue(depth=depth)

    def create_qp(self, pd, send_cq=None, recv_cq=None, max_send_wr=1024):
        send_cq = send_cq if send_cq is not None else self.create_cq()
        recv_cq = recv_cq if recv_cq is not None else send_cq
        qp = QueuePair(pd, send_cq, recv_cq, max_send_wr=max_send_wr)
        self._qps[qp.qpn] = qp
        return qp

    def qp(self, qpn):
        try:
            return self._qps[qpn]
        except KeyError:
            raise VerbsError("%s has no QP 0x%x" % (self.name, qpn))

    def reg_mr(self, pd, va_base, chunks, kind, translated):
        """Register a memory region.

        ``chunks`` are ``(va, target, length)`` triples describing where
        each VA extent lives in target (HPA or DA) space; the environment
        (bare-metal host, hypervisor, vStellar control path) computes them.
        """
        mtt_key = self.mtt.register(va_base, chunks, kind, translated)
        length = sum(chunk_len for _, _, chunk_len in chunks)
        mr = MemoryRegionHandle(pd, va_base, length, kind, mtt_key)
        self._mrs_by_rkey[mr.rkey] = mr
        return mr

    def dereg_mr(self, mr):
        if not mr.valid:
            raise VerbsError("MR lkey=0x%x already deregistered" % mr.lkey)
        mr.valid = False
        self.mtt.deregister(mr.mtt_key)
        del self._mrs_by_rkey[mr.rkey]

    def mr_by_rkey(self, rkey):
        try:
            return self._mrs_by_rkey[rkey]
        except KeyError:
            raise VerbsError("%s has no MR with rkey 0x%x" % (self.name, rkey))

    # -- datapath ----------------------------------------------------------

    def dma_access(self, mr, va, length=None, emit=False, write=True):
        """Translate one access through the datapath; optionally emit a TLP
        through the real PCIe fabric (used by routing tests/benches).

        Returns ``(AccessResult, Delivery-or-None)``.
        """
        if length is None:
            length = min(self.page_size, mr.va_base + mr.length - va)
        result = self.datapath.access(mr.mtt_key, va, length)
        delivery = None
        if emit:
            if self.fabric is None or self.function is None:
                raise VerbsError("%s is not attached to a PCIe fabric" % self.name)
            maker = Tlp.mem_write if write else Tlp.mem_read
            tlp = maker(
                result.address, length, self.function.bdf, at=result.at,
                pasid=self.pasid,
            )
            delivery = self.fabric.route(tlp)
        return result, delivery

    # -- functional RDMA execution -----------------------------------------

    def rdma_write(self, qp, wr_id, local_mr, local_va, length, remote_rkey,
                   remote_va):
        """Execute a one-sided RDMA write end-to-end (functional model).

        Validates QP state, PD ownership on both ends, and region bounds;
        updates byte counters on both NICs; pushes a completion.  Returns
        the estimated one-way completion latency in seconds.
        """
        from repro.rnic.verbs import WorkRequest

        wr = WorkRequest(
            wr_id, Opcode.RDMA_WRITE, local_va, length, local_mr.lkey,
            remote_va=remote_va, rkey=remote_rkey,
        )
        qp.post_send(wr)
        qp.send_queue.remove(wr)
        status = WcStatus.SUCCESS
        latency = calibration.RDMA_BASE_LATENCY_SECONDS

        if local_mr.pd.handle != qp.pd.handle:
            status = WcStatus.LOCAL_PROTECTION_ERROR
        elif not local_mr.covers(local_va, length):
            status = WcStatus.LOCAL_PROTECTION_ERROR
        else:
            remote_nic = qp.remote_nic
            if remote_nic is None:
                raise VerbsError("QP 0x%x has no remote NIC bound" % qp.qpn)
            try:
                remote_mr = remote_nic.mr_by_rkey(remote_rkey)
            except VerbsError:
                remote_mr = None
            remote_qp = remote_nic.qp(qp.remote_qpn)
            if (
                remote_mr is None
                or not remote_mr.valid
                or remote_mr.pd.handle != remote_qp.pd.handle
                or not remote_mr.covers(remote_va, length)
            ):
                status = WcStatus.REMOTE_ACCESS_ERROR

        if status is WcStatus.SUCCESS:
            # Touch both datapaths so translation state (ATC etc.) evolves.
            local_result = self.datapath.access(local_mr.mtt_key, local_va, 1)
            remote_result = remote_nic.datapath.access(remote_mr.mtt_key, remote_va, 1)
            rate = min(self.wire_rate, remote_nic.wire_rate)
            rate = min(
                self.datapath.rate_ceiling(local_result.kind, rate),
                remote_nic.datapath.rate_ceiling(remote_result.kind, rate),
            )
            latency += transfer_time(length, rate)
            latency += local_result.stall + remote_result.stall
            self.ops_executed += 1
            self.bytes_sent += length
            qp.bytes_sent += length
            remote_nic.bytes_received += length
            remote_qp.bytes_received += length
        qp.send_cq.push(WorkCompletion(wr_id, status, Opcode.RDMA_WRITE, length))
        return latency

    def rdma_read(self, qp, wr_id, local_mr, local_va, length, remote_rkey,
                  remote_va):
        """Execute a one-sided RDMA read (functional model).

        Mirrors :meth:`rdma_write` with the data flowing toward the
        requester; the same PD/bounds checks apply on both ends.
        """
        from repro.rnic.verbs import WorkRequest

        wr = WorkRequest(
            wr_id, Opcode.RDMA_READ, local_va, length, local_mr.lkey,
            remote_va=remote_va, rkey=remote_rkey,
        )
        qp.post_send(wr)
        qp.send_queue.remove(wr)
        status = WcStatus.SUCCESS
        latency = calibration.RDMA_BASE_LATENCY_SECONDS

        if local_mr.pd.handle != qp.pd.handle or not local_mr.covers(
            local_va, length
        ):
            status = WcStatus.LOCAL_PROTECTION_ERROR
        else:
            remote_nic = qp.remote_nic
            if remote_nic is None:
                raise VerbsError("QP 0x%x has no remote NIC bound" % qp.qpn)
            try:
                remote_mr = remote_nic.mr_by_rkey(remote_rkey)
            except VerbsError:
                remote_mr = None
            remote_qp = remote_nic.qp(qp.remote_qpn)
            if (
                remote_mr is None
                or not remote_mr.valid
                or remote_mr.pd.handle != remote_qp.pd.handle
                or not remote_mr.covers(remote_va, length)
            ):
                status = WcStatus.REMOTE_ACCESS_ERROR

        if status is WcStatus.SUCCESS:
            local_result = self.datapath.access(local_mr.mtt_key, local_va, 1)
            remote_result = remote_nic.datapath.access(
                remote_mr.mtt_key, remote_va, 1
            )
            rate = min(self.wire_rate, remote_nic.wire_rate)
            rate = min(
                self.datapath.rate_ceiling(local_result.kind, rate),
                remote_nic.datapath.rate_ceiling(remote_result.kind, rate),
            )
            # Reads pay an extra one-way trip: request out, data back.
            latency += calibration.RDMA_BASE_LATENCY_SECONDS / 2
            latency += transfer_time(length, rate)
            latency += local_result.stall + remote_result.stall
            self.ops_executed += 1
            self.bytes_received += length
            qp.bytes_received += length
            remote_nic.bytes_sent += length
            remote_nic.qp(qp.remote_qpn).bytes_sent += length
        qp.send_cq.push(WorkCompletion(wr_id, status, Opcode.RDMA_READ, length))
        return latency

    def post_recv(self, qp, wr_id, mr, va, length):
        """Post a receive buffer for two-sided SEND traffic."""
        if mr.pd.handle != qp.pd.handle or not mr.covers(va, length):
            raise VerbsError("recv buffer fails PD/bounds checks")
        if not hasattr(qp, "recv_queue"):
            qp.recv_queue = []
        qp.recv_queue.append((wr_id, mr, va, length))

    def send(self, qp, wr_id, local_mr, local_va, length):
        """Two-sided SEND: consumes the head receive WQE on the remote QP.

        Returns the one-way latency; RNR (no posted receive) surfaces as a
        RETRY_EXCEEDED completion, as a retried-out verbs send would.
        """
        status = WcStatus.SUCCESS
        latency = calibration.RDMA_BASE_LATENCY_SECONDS
        if qp.state.value != "RTS":
            raise VerbsError("send on QP 0x%x not in RTS" % qp.qpn)
        if local_mr.pd.handle != qp.pd.handle or not local_mr.covers(
            local_va, length
        ):
            status = WcStatus.LOCAL_PROTECTION_ERROR
        else:
            remote_nic = qp.remote_nic
            remote_qp = remote_nic.qp(qp.remote_qpn)
            pending = getattr(remote_qp, "recv_queue", [])
            if not pending:
                status = WcStatus.RETRY_EXCEEDED  # RNR retries exhausted
            else:
                recv_id, recv_mr, recv_va, recv_len = pending[0]
                if recv_len < length or not recv_mr.valid:
                    status = WcStatus.REMOTE_ACCESS_ERROR
                else:
                    pending.pop(0)
                    rate = min(self.wire_rate, remote_nic.wire_rate)
                    latency += transfer_time(length, rate)
                    self.ops_executed += 1
                    self.bytes_sent += length
                    qp.bytes_sent += length
                    remote_nic.bytes_received += length
                    remote_qp.bytes_received += length
                    remote_qp.recv_cq.push(
                        WorkCompletion(recv_id, WcStatus.SUCCESS, Opcode.RECV,
                                       length)
                    )
        qp.send_cq.push(WorkCompletion(wr_id, status, Opcode.SEND, length))
        return latency

    def __repr__(self):
        return "%s(%r, mode=%s, %d QPs, %d MRs)" % (
            type(self).__name__,
            self.name,
            self.mode.value,
            len(self._qps),
            len(self._mrs_by_rkey),
        )
