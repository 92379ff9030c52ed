"""The library names the benchmark harness reaches.

The tier-1 suite never runs bench/, so a deletion in src/ could break
`bench/run.py --trace 1` with every test green.  This reads the tracer's
WRAPPED table from bench/tracer.py (without installing anything) and
checks each name still exists, together with the two names the harness
reads off the library directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


@pytest.mark.parametrize("module, attr", _wrapped())
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"reebmin.{module}"), attr))


def test_names_the_harness_reads_directly():
    from reebmin import cones, links

    # the tracer reads the ray cache's statistics; the bP_8 jobs are library calls
    assert callable(cones.extreme_rays.cache_info)
    assert callable(links.bp8_class)
