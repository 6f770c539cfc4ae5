"""``spare_bound_off()``, which turns the spare-colour bound off everywhere.

Stdlib-only, so that a job without pytest can import it as well as the test
suite (``conftest`` re-exports it): with ``tests`` on the path,
``from spare_bound import spare_bound_off``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from rainbowmatch import switching


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
