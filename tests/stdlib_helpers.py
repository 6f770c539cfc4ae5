"""Test helpers that need the standard library alone.

``isotope(n, seed)``, the one seeded Latin square family, and
``spare_bound_off()``, which turns the spare-colour bound off everywhere.
``tests/test_identity.py`` imports them so that it runs with nothing
installed; ``conftest`` re-exports them for the suites.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

from rainbowmatch import cyclic_square, permute_square, switching


def isotope(n: int, seed: int):
    """Z_n with seeded row, column and symbol permutations, as a square."""
    rng = random.Random(seed)
    perms = [rng.sample(range(n), n) for _ in range(3)]
    return permute_square(cyclic_square(n), *perms)


@contextmanager
def spare_bound_off():
    """Turn off ``augment``'s spare-colour bound inside the block.

    Every context that ``SwitchContext.build`` makes in the block claims
    more spare colours (``ctx.spares``, which the bound reads in
    ``augment`` and ``solve`` passes to ``RankedViolations.ranked``) than
    any chain can ask for, so no bucket is passed over and every
    augmentation runs its chain as it did before the bound.  A context
    manager, so it also serves hypothesis tests.  A context without
    ``spares`` fails an assert, so a rename cannot leave the patch setting
    an attribute that nothing reads.
    """
    build = switching.SwitchContext.__dict__["build"]

    def building(cls, *args, **kwargs):
        ctx = build.__func__(cls, *args, **kwargs)
        assert hasattr(ctx, "spares")
        ctx.spares = sys.maxsize
        return ctx

    switching.SwitchContext.build = classmethod(building)
    try:
        yield
    finally:
        switching.SwitchContext.build = build
