"""The traced benchmark run wraps ballpack functions by name.

``perfbench/tracing.py`` lists them in ``TRACED`` as (module, attribute,
class or None, ...) and looks each one up when a run is traced, so a name
that is renamed or deleted in ballpack breaks ``--trace 1``.  These tests
load that file as it is and check that every name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize(
    "mod_name,attr,cls_name",
    [t[:3] for t in TRACED],
    ids=[".".join(n for n in (t[0], t[2], t[1]) if n) for t in TRACED],
)
def test_traced_name_resolves(mod_name, attr, cls_name):
    module = importlib.import_module(f"ballpack.{mod_name}")
    if cls_name is None:
        assert callable(getattr(module, attr, None))
    else:
        assert callable(vars(getattr(module, cls_name)).get(attr))


def test_tracer_installs_and_uninstalls():
    for mod_name in {t[0] for t in TRACED}:
        importlib.import_module(f"ballpack.{mod_name}")  # install wraps loaded modules
    tracer = load_tracing().Tracer()
    cluster_entry = importlib.import_module("ballpack.apollonian").Cluster.entry
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert importlib.import_module("ballpack.apollonian").Cluster.entry is cluster_entry
