"""Discrete-event simulation kernel.

This subpackage is the substrate that stands in for CloudSim's simulation
core (``org.cloudbus.cloudsim.core``): a future event list, a simulation
clock, entity registration and tagged message passing between entities.

The kernel is deliberately small and allocation-light; the scheduling study
pushes millions of events through it in the heterogeneous scenario sweeps.
"""

from repro.core.engine import Simulation, SimulationError
from repro.core.entity import Entity
from repro.core.eventqueue import Event, EventQueue
from repro.core.rng import spawn_rng
from repro.core.tags import EventTag

__all__ = [
    "Simulation",
    "SimulationError",
    "Entity",
    "Event",
    "EventQueue",
    "EventTag",
    "spawn_rng",
]
