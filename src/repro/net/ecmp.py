"""ECMP-style hashing for path selection.

Stellar modulates a header entropy field per packet (the path id); every
switch hashes the header to pick an uplink.  We model the end-to-end
effect: ``(flow entropy, path id) -> (plane, aggregation switch)``.  The
hash must be fast (it runs per simulated packet), deterministic across
runs, and well-mixed — splitmix64 fits all three.
:func:`splitmix64_array` is the same mixer over a numpy ``uint64`` array,
for callers that hash every path id of a flow at once.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_U64 = np.uint64
# splitmix64 constants, pre-wrapped so splitmix64_array stays in uint64
# (numpy wraps on overflow exactly like the ``& _MASK64`` in splitmix64).
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_MUL1 = _U64(0xBF58476D1CE4E5B9)
_SM_MUL2 = _U64(0x94D049BB133111EB)
_SM_S30 = _U64(30)
_SM_S27 = _U64(27)
_SM_S31 = _U64(31)


def splitmix64(value):
    """One round of the splitmix64 mixer: cheap, high-quality avalanche."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def splitmix64_array(values):
    """:func:`splitmix64` over a ``uint64`` array, bit-identical per lane."""
    v = values + _SM_GAMMA
    v = (v ^ (v >> _SM_S30)) * _SM_MUL1
    v = (v ^ (v >> _SM_S27)) * _SM_MUL2
    return v ^ (v >> _SM_S31)


def hash_combine(*values):
    """Mix several integers into one 64-bit hash."""
    state = 0x243F6A8885A308D3  # pi digits; arbitrary non-zero seed
    for value in values:
        state = splitmix64(state ^ (value & _MASK64))
    return state


class EcmpHasher:
    """Maps (flow entropy, path id) to one of ``bucket_count`` routes."""

    def __init__(self, bucket_count):
        if bucket_count <= 0:
            raise ValueError("bucket_count must be positive: %r" % bucket_count)
        self.bucket_count = bucket_count

    def bucket(self, flow_entropy, path_id=0):
        """The ECMP bucket this (flow, path) combination lands in.

        Single-path transports always pass ``path_id=0`` — every packet of
        the flow shares one bucket, which is the hash-imbalance problem.
        """
        return hash_combine(flow_entropy, path_id) % self.bucket_count

    def buckets_for_paths(self, flow_entropy, path_count):
        """The bucket each of the flow's ``path_count`` path ids maps to.

        Distinct path ids may collide into the same bucket; the *effective*
        fan-out saturates at ``bucket_count`` as path_count grows, which is
        exactly the Figure 12 saturation behaviour.
        """
        return [self.bucket(flow_entropy, p) for p in range(path_count)]


def flow_entropy(src_id, dst_id, connection_id=0):
    """Stable per-connection entropy from endpoint identifiers."""
    return hash_combine(src_id, dst_id, connection_id)
