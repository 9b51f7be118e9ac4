"""Stub: pool records travel in the worker's "done" message, not in rings.

It stays only because ``perfbench/layers.py`` imports ``ShmRing`` and wraps
its two methods in traced runs; nothing calls them.  Delete it together
with those benchmark rows.
"""


class ShmRing:
    def try_push(self, shard_index: int, payload: bytes) -> bool:
        raise NotImplementedError

    def try_pop(self):
        raise NotImplementedError
