"""Queueing-theory reference formulas.

Closed-form M/M/1 and M/M/c results used to *validate the simulator
against theory*: with Poisson arrivals and exponentially distributed
cloudlet lengths on identical single-PE VMs, the online engine is a
queueing system with known steady-state behaviour, so measured sojourn
times must match (M/M/1) or be bracketed by (JSQ routing between M/M/c
and random-routing M/M/1) these formulas.  See
``tests/integration/test_queueing_validation.py``.
"""

from __future__ import annotations

import math

from repro.core.checks import check_number


def _check_rates(arrival_rate: float, service_rate: float, servers: int = 1) -> float:
    check_number("arrival_rate", arrival_rate, gt=0)
    check_number("service_rate", service_rate, gt=0)
    check_number("servers", servers, ge=1, integer=True)
    rho = arrival_rate / (servers * service_rate)
    if rho >= 1:
        raise ValueError(
            f"system is unstable: utilization {rho:.3f} >= 1 "
            f"(lambda={arrival_rate}, mu={service_rate}, c={servers})"
        )
    return rho


def utilization(arrival_rate: float, service_rate: float, servers: int = 1) -> float:
    """Offered utilization ``rho = lambda / (c * mu)``; must be < 1."""
    return _check_rates(arrival_rate, service_rate, servers)


def mm1_mean_sojourn(arrival_rate: float, service_rate: float) -> float:
    """Mean time in system of an M/M/1 queue: ``1 / (mu - lambda)``."""
    _check_rates(arrival_rate, service_rate)
    return 1.0 / (service_rate - arrival_rate)


def mm1_mean_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean waiting time (excluding service) of an M/M/1 queue."""
    rho = _check_rates(arrival_rate, service_rate)
    return rho / (service_rate - arrival_rate)


def mm1_mean_number_in_system(arrival_rate: float, service_rate: float) -> float:
    """Mean number in system: ``rho / (1 - rho)`` (Little's law check)."""
    rho = _check_rates(arrival_rate, service_rate)
    return rho / (1.0 - rho)


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C: probability an arrival must wait in an M/M/c queue.

    ``offered_load`` is ``a = lambda / mu`` (in Erlangs); requires
    ``a < servers``.
    """
    check_number("servers", servers, ge=1, integer=True)
    check_number("offered_load", offered_load, gt=0)
    if offered_load >= servers:
        raise ValueError(
            f"unstable: offered load {offered_load} >= servers {servers}"
        )
    # Stable evaluation via the iterative Erlang B recursion.
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    rho = offered_load / servers
    return b / (1.0 - rho + rho * b)


def mmc_mean_wait(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean waiting time of an M/M/c queue (central queue, FCFS)."""
    _check_rates(arrival_rate, service_rate, servers)
    a = arrival_rate / service_rate
    pw = erlang_c(servers, a)
    return pw / (servers * service_rate - arrival_rate)


def mmc_mean_sojourn(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean time in system of an M/M/c queue."""
    return mmc_mean_wait(arrival_rate, service_rate, servers) + 1.0 / service_rate


def little_l(arrival_rate: float, mean_sojourn: float) -> float:
    """Little's law: ``L = lambda * W``."""
    check_number("arrival_rate", arrival_rate, gt=0)
    check_number("mean_sojourn", mean_sojourn, ge=0)
    return arrival_rate * mean_sojourn


__all__ = [
    "utilization",
    "mm1_mean_sojourn",
    "mm1_mean_wait",
    "mm1_mean_number_in_system",
    "erlang_c",
    "mmc_mean_wait",
    "mmc_mean_sojourn",
    "little_l",
]
