"""The benchmark's own copies of package rules agree with the package.

`perfbench/workloads.py` builds its inputs with private copies of the
conductor-level rule (`_has_level`) and the generator orders
(`_unit_orders`), so that its inputs stay fixed while the package
changes.  Until it imports the package's own, these checks keep the
copies from drifting.
"""

import importlib.util
import itertools
from pathlib import Path

from grunwald.characters import conductor_levels
from grunwald.core_arith import primes_stream, unit_orders

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_level_rule_and_orders_match_the_package():
    workloads = load_workloads()
    primes = list(itertools.takewhile(lambda p: p < 50, primes_stream()))
    mismatches = [
        (m, p, k)
        for m in range(1, 129)
        for p in primes
        for k in range(1, 7)
        if workloads._has_level(m, p, k) != (k in conductor_levels(p, m))
    ]
    assert mismatches == []
    for p in primes:
        for k in range(1, 7):
            assert workloads._unit_orders(p, k) == unit_orders(p, k), (p, k)
