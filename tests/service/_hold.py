"""Test seam: hold service lanes before they dequeue their next batch."""

from __future__ import annotations

import asyncio


def hold_lanes(service, *names: str) -> "dict[str, asyncio.Event]":
    """Make each named lane wait on an event before it dequeues.

    Returns ``{lane: event}``; ``event.set()`` releases that lane for
    good.  While a lane is held its jobs stay queued, so ``qsize``,
    reroutes and a no-drain stop all see them.  Call it straight after
    ``await service.start()``, before anything yields to the loop: a
    worker already waiting inside ``get_batch`` takes its next job
    unheld.
    """
    events: "dict[str, asyncio.Event]" = {}
    for name in names:
        queue = service.queues[name]
        event = events[name] = asyncio.Event()
        get_batch = queue.get_batch

        async def held(max_batch, event=event, get_batch=get_batch):
            await event.wait()
            return await get_batch(max_batch)

        queue.get_batch = held
    return events
