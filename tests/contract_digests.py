"""The determinism contract's pinned digests.

Every performance or simplification change must leave these simulated
fingerprints bit-identical.  The tier-1 tests that already compute a
fingerprint (the double-run probe, the fleet smoke/churn checks and the
hybrid churn check) assert it equals the value pinned here, so a change
that moves simulated behaviour fails in CI instead of in a hand check.

The metrics digest covers each fleet host's shared-ATC snapshot but
not its IOMMU's IOTLB, so the IOTLB counters of the smoke and churn
seed-17 runs, summed over hosts, are pinned beside the digests.  The
fleet runs are not the only fluid-solver client: the fluid replay of
each bundled trace (seed 17, hosts not booted) is pinned as its op
sequence and exact makespan.

When simulated behaviour is meant to change, update the values here
once, in that change, and log each old -> new pair in CHANGES.md.  The
one planned case is ROADMAP item 2's semantic-digest re-baseline.
"""

import hashlib
import json

#: (scenario, seed) -> (metrics digest, trace digest, flight digest)
CONTRACT_DIGESTS = {
    ("probe", 17): (
        "3cb4a7692bf1d5246cf2a689ba30ceb7e3e1ea3b0e850824cd48515b933a5db4",
        "b4c61facc4c68034815faa74fd4381afb069af82ec7ed5fe8555cf2408904aa4",
        "b1101ab2226b5763e128ea38c057f63231df6b4f555801b47dc8a9cd51a28a5e",
    ),
    ("probe", 18): (
        "335f87088ebc05546f1896711ffa104c2376ba63c2bf34fd15b9b436e70867a3",
        "6dad2e2a1fe66602956c1280a8e7e28ba7bbb29ca7b279f1e427da9bbdc8e884",
        "7b1eb2bdab9a2d945a3df7d001f48b9fa635ff50417c721df4c0941b9e1d4889",
    ),
    ("smoke", 17): (
        "f1e50d9c28d8a287aeaa261f90a9459d0a98e20bd806f2bf4f3ed175dc1ee758",
        "d221d8b7360bee304e747f2dcbc0290ef41a7ccef48141c361ea56d2d942cb89",
        "9f2816e3378c5935097f9f461e15d88cd7eb5bc7041a556e8ae6b9b120a9808c",
    ),
    ("smoke", 23): (
        "db966452025eacc30038c4192644975c6eac9e5886ea15d3def18b85e531218b",
        "65622fec1507d75eaf7165174c0bc5de80b4b129d2098b9e827c4c41b6f2ed22",
        "5c4e3c7f76debffb2abcf2975356d4d17742d3900b17fd7f5bb2e85764e80bfd",
    ),
    ("churn", 17): (
        "f9647dd4689d23c0115b4c4fd6747f3950b9b568232bc41bae43492f760fd0ec",
        "8f9e29c85fe2f69d459033de8701ad87de8fa04f3a3ce1f049e2084dd751a15c",
        "52f59d2242738324e26505dffaa9907da8d6497041162979548649a16fd0d000",
    ),
    ("hybrid", 17): (
        "b8f54a220e5be9d3f0c9f422009e19979b73d144ee8fbaacb52b892b59104567",
        "aed594571ab801219be551317641a9b48a1968356fc4a76663ee8e6180f24418",
        "978c82d5fb013bf672468053befc403b37d8555e9e256294c95a1029e419ad6a",
    ),
    ("hybrid", 23): (
        "29a6bce49ca5a79d2d08885a6f6bb703c48bdf507d3d8d402934b14f992c2925",
        "773d0b69f3d3652132badd21e199439b0882185a68ae69983469eab9d7a858c5",
        "812ab518fd4559b098039e50d28feeef75f2b1a845361221b4b9a010e1229050",
    ),
}


#: (scenario, seed) -> IOTLB counters summed over the fleet's hosts
CONTRACT_IOTLB = {
    ("smoke", 17): {"hits": 0, "misses": 384, "evictions": 0,
                    "invalidations": 384, "size": 0},
    ("churn", 17): {"hits": 0, "misses": 18432, "evictions": 0,
                    "invalidations": 18432, "size": 0},
}


#: bundled trace -> (op-log digest, makespan.hex()) of its fluid replay
#: at seed 17 without host boot
CONTRACT_REPLAY = {
    "moe_training": (
        "e4e3ec0e61399dd9bc24d67d5114ccc226ddac67ce40ee2768a7bbfdf105e498",
        "0x1.270e5d770fbd2p-6",
    ),
    "rag_pipeline": (
        "f57e38bc0b72ecf627e336229e019af6d950fe1114ed5b13e0213420fac333e4",
        "0x1.bcb4958d344a5p-8",
    ),
    "checkpoint_burst": (
        "6b7aa4f159874f88511f9561739e49bd0ed7af8bff853b75290e1ea62a8f1d71",
        "0x1.ba67bcca17b32p-9",
    ),
}


def replay_fingerprint(result):
    """A replay's (op-log digest, makespan.hex()): every op's id, kind,
    start and end in completion order, plus the unrounded makespan."""
    text = json.dumps([[entry["id"], entry["kind"], entry["start"],
                        entry["end"]] for entry in result.op_log])
    return (hashlib.sha256(text.encode()).hexdigest(),
            result.makespan.hex())


def iotlb_totals(fleet):
    """A fleet's IOTLB counters, summed over its hosts."""
    totals = dict.fromkeys(CONTRACT_IOTLB[("smoke", 17)], 0)
    for host in fleet.scheduler.hosts:
        snap = host.host.hypervisor.iommu.iotlb.snapshot()
        for key in totals:
            totals[key] += snap[key]
    return totals


def assert_pinned_iotlb(scenario, seed, totals):
    """Assert one run's summed IOTLB counters equal their pinned values."""
    assert totals == CONTRACT_IOTLB[(scenario, seed)], (
        "%s seed %d moved off its pinned IOTLB totals: %s"
        % (scenario, seed, totals)
    )


def assert_pinned(scenario, seed, fingerprint):
    """Assert one fingerprint carries its pinned contract digests."""
    got = (fingerprint.metrics_digest, fingerprint.trace_digest,
           fingerprint.flight_digest)
    assert got == CONTRACT_DIGESTS[(scenario, seed)], (
        "%s seed %d moved off its pinned contract digests "
        "(metrics/trace/flight): %s" % (scenario, seed, got)
    )
