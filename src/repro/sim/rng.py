"""Seeded random-number streams.

Each simulated component draws from its own named stream so that adding a
new consumer of randomness never perturbs the draws seen by existing ones.
Streams are derived from a root seed with a stable hash, which keeps whole
experiments reproducible across processes and Python versions.
"""

import hashlib
import random

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed, *names):
    """Derive a 64-bit child seed from ``root_seed`` and a path of names.

    The derivation uses SHA-256 so it is stable across interpreter runs
    (unlike built-in ``hash``) and statistically independent between names.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & _MASK64


class RngStream:
    """A named, independently-seeded random stream.

    Wraps :class:`random.Random` and exposes only the draws the simulators
    need, plus :meth:`child` for hierarchical derivation (e.g. one stream
    per flow under one stream per experiment).
    """

    def __init__(self, root_seed, *names):
        self.seed = derive_seed(root_seed, *names)
        self._names = tuple(names)
        self._root_seed = int(root_seed)
        self._random = random.Random(self.seed)
        # Hot-path draws are the underlying generator's bound methods, so
        # per-draw calls skip one Python frame: ``random()`` in [0, 1),
        # ``randint(low, high)`` inclusive, ``getrandbits(k)``.
        self.random = self._random.random
        self.randint = self._random.randint
        self.getrandbits = self._random.getrandbits

    def child(self, *names):
        """Return a new stream derived from this stream's identity."""
        return RngStream(self._root_seed, *(self._names + tuple(names)))

    def uniform(self, low=0.0, high=1.0):
        return self._random.uniform(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq):
        self._random.shuffle(seq)

    def sample(self, population, k):
        return self._random.sample(population, k)

    def expovariate(self, rate):
        return self._random.expovariate(rate)

    def permutation(self, n):
        """A random permutation of range(n) with no fixed point when n > 1.

        Permutation traffic benchmarks require every sender to target a
        *different* endpoint, so the identity mapping positions are rejected.
        """
        if n <= 0:
            return []
        if n == 1:
            return [0]
        while True:
            perm = list(range(n))
            self._random.shuffle(perm)
            if all(perm[i] != i for i in range(n)):
                return perm

    def __repr__(self):
        return "RngStream(seed=%d, names=%r)" % (self.seed, list(self._names))
