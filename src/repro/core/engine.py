"""The simulation engine: clock + event loop + entity registry.

Equivalent to CloudSim's ``CloudSim`` class, trimmed to what the scheduling
study needs: deterministic event ordering, entity registration by name/id and
a run loop with optional time/event-count bounds.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.entity import Entity
from repro.core.eventqueue import Event, EventQueue
from repro.core.tags import EventTag
from repro.obs.telemetry import TELEMETRY as _TEL


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (unknown destination, re-run...)."""


class Simulation:
    """Owns the clock, the future event list and the registered entities.

    Parameters
    ----------
    trace:
        When true, every delivered event is recorded in :attr:`trace_log`
        (useful for tests and debugging; costs memory on big runs).

    Examples
    --------
    >>> from repro.core import Simulation, Entity, EventTag
    >>> class Echo(Entity):
    ...     def process_event(self, event):
    ...         self.received = event.data
    >>> sim = Simulation()
    >>> echo = Echo("echo")
    >>> sim.register(echo)
    0
    >>> _ = sim.schedule(delay=5.0, src=-1, dst=echo.id, tag=EventTag.NONE, data="hi")
    >>> sim.run()
    5.0
    >>> echo.received
    'hi'
    """

    def __init__(self, *, trace: bool = False) -> None:
        self._clock = 0.0
        self._queue = EventQueue()
        self._entities: list[Entity] = []
        self._by_name: dict[str, Entity] = {}
        self._running = False
        self._started = False
        self._finished = False
        self._events_processed = 0
        self.trace = trace
        self.trace_log: list[Event] = []

    # -- registry -----------------------------------------------------------

    def register(self, entity: Entity) -> int:
        """Register ``entity`` and return its assigned id."""
        if self._running or self._finished:
            raise SimulationError("cannot register entities once the simulation has run")
        if entity.name in self._by_name:
            raise SimulationError(f"duplicate entity name {entity.name!r}")
        entity_id = len(self._entities)
        entity._attach(self, entity_id)
        self._entities.append(entity)
        self._by_name[entity.name] = entity
        return entity_id

    def register_all(self, entities: Iterable[Entity]) -> list[int]:
        """Register several entities; returns their ids in order."""
        return [self.register(e) for e in entities]

    def entity(self, key: int | str) -> Entity:
        """Look up an entity by id or by name."""
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise SimulationError(f"unknown entity name {key!r}") from None
        try:
            return self._entities[key]
        except IndexError:
            raise SimulationError(f"unknown entity id {key}") from None

    @property
    def entities(self) -> tuple[Entity, ...]:
        return tuple(self._entities)

    # -- clock & scheduling ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._clock

    @property
    def events_processed(self) -> int:
        """Number of events delivered so far."""
        return self._events_processed

    @property
    def finished(self) -> bool:
        """True once the event list drained and shutdown hooks have fired."""
        return self._finished

    def schedule(
        self,
        *,
        delay: float,
        src: int,
        dst: int,
        tag: EventTag,
        data: Any = None,
        priority: int = 0,
    ) -> Event:
        """Enqueue an event ``delay`` time units from now."""
        if not delay >= 0:  # NaN fails this comparison too
            raise SimulationError(
                f"negative delay {delay}" if delay < 0 else f"delay is {delay}"
            )
        if not 0 <= dst < len(self._entities):
            raise SimulationError(f"unknown destination entity id {dst}")
        return self._queue.push(
            time=self._clock + delay, src=src, dst=dst, tag=tag, data=data, priority=priority
        )

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event."""
        return self._queue.cancel(event)

    def cancel_where(self, predicate: Callable[[Event], bool]) -> int:
        """Cancel all pending events matching ``predicate``."""
        return self._queue.cancel_where(predicate)

    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    # -- run loop -------------------------------------------------------------

    def _finalize(self) -> None:
        """Terminate a drained simulation: flip state, fire shutdown hooks.

        Idempotent — :meth:`run` and :meth:`step` both funnel through here,
        so hooks fire exactly once no matter how the drain was reached.
        """
        if self._finished:
            return
        self._finished = True
        self._running = False
        for entity in self._entities:
            entity.shutdown()

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run the event loop.

        Entities' :meth:`~repro.core.entity.Entity.start` hooks fire first
        (on the initial call only); the loop then drains the event list until
        it is empty, ``until`` is passed, or ``max_events`` deliveries happen.

        Returns the final simulation clock.
        """
        if self._finished and not self._queue:
            return self._clock
        self._running = True
        if not self._started:
            self._started = True
            for entity in self._entities:
                entity.start()

        delivered = 0
        while self._queue:
            head = self._queue.peek()
            assert head is not None
            if until is not None and head.time > until:
                self._clock = until
                break
            if max_events is not None and delivered >= max_events:
                break
            event = self._queue.pop()
            if event.time < self._clock:
                raise SimulationError(
                    f"causality violation: event at t={event.time} < clock={self._clock}"
                )
            self._clock = event.time
            if self.trace:
                self.trace_log.append(event)
            self._entities[event.dst].process_event(event)
            self._events_processed += 1
            delivered += 1
        else:
            # Event list drained completely: simulation is over.
            self._finalize()
        if _TEL.enabled and delivered:
            # Batched once per run() call, not per event, to keep the loop hot.
            _TEL.count("core.events_dispatched", delivered)
        return self._clock

    def step(self) -> Event | None:
        """Deliver exactly one event; returns it (or ``None`` if drained).

        Termination matches :meth:`run`: the step that drains the event
        list (and a drained call on a started simulation) finalizes —
        ``_finished`` flips, ``_running`` clears and entity ``shutdown()``
        hooks fire, exactly once.
        """
        if not self._queue:
            if self._started:
                self._finalize()
            return None
        self._running = True
        if not self._started:
            self._started = True
            for entity in self._entities:
                entity.start()
        event = self._queue.pop()
        self._clock = event.time
        if self.trace:
            self.trace_log.append(event)
        self._entities[event.dst].process_event(event)
        self._events_processed += 1
        if not self._queue:
            self._finalize()
        return event


__all__ = ["Simulation", "SimulationError"]
