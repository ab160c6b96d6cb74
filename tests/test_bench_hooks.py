"""The benchmark's tracing hooks still name functions the library has."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def test_every_traced_name_exists():
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    assert tracing.missing_hooks() == [], (
        "bench/tracing.py patches these names, so a traced benchmark run would exit 2; "
        "keep them until the benchmark measures seams that survive the change "
        "(ROADMAP item 2)"
    )
