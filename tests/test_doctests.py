"""Execute the runnable examples embedded in docstrings.

Keeps the documentation honest: every ``>>>`` example in these modules is
executed on each test run.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: modules whose docstrings carry executable examples.
MODULES_WITH_EXAMPLES = [
    "repro",
    "repro.core.engine",
    "repro.core.rng",
    "repro.obs",
    "repro.obs.telemetry",
    "repro.obs.manifest",
    "repro.obs.export",
    "repro.cache",
    "repro.optim",
    "repro.workloads.synthetic",
    "repro.workloads.streaming",
    "repro.schedulers.streaming",
    "repro.schedulers.gsa",
    "repro.schedulers.psogsa",
    "repro.schedulers.cuckoo_sos",
    "repro.serve",
    "repro.serve.protocol",
    "repro.serve.service",
    "repro.serve.loadgen",
    "repro.experiments.profiling",
    "repro.metrics.resilience",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_EXAMPLES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
    assert results.attempted > 0, f"{module_name} has no doctests; update the list"
