"""What a piece of code leaves for the cyclic garbage collector.

The package frees its objects by reference counting: no stream refers to
itself, so nothing it builds waits for a collection.  The tests check this
with ``left_for_the_collector``.
"""

import gc
from collections import Counter


def left_for_the_collector(run) -> Counter:
    """The type names of the objects ``run()`` leaves in reference cycles, by count.

    The collector is disabled and ``DEBUG_SAVEALL`` set while ``run`` runs,
    after one collection, and both are restored after the collection that
    follows it; what that collection finds is counted, then dropped.
    """
    gc.collect()
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage[kept:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()
