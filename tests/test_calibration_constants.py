"""Every numeric calibration constant is read by the model.

A constant that no code reads can drift from the paper without moving
any simulated number, and a sensitivity sweep over the constants would
report it as having no effect.  So each numeric field of the config
dataclasses must appear as an attribute read somewhere in ``src/repro``.
"""

import ast
import dataclasses
from pathlib import Path

from repro.apps.ml import MlSpec
from repro.apps.nas.common import NasSpec
from repro.dmtcp.costs import CostModel
from repro.faults.recovery import RecoveryConfig
from repro.hardware.cluster import HardwareSpec
from repro.migrate.manager import MigrationConfig
from repro.store.store import StoreConfig

CONFIGS = (CostModel, HardwareSpec, NasSpec, MlSpec, StoreConfig,
           MigrationConfig, RecoveryConfig)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _numeric_fields(cls):
    return [f.name for f in dataclasses.fields(cls)
            if f.type in (int, float, "int", "float")]


def _attributes_read():
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_numeric_config_field_is_read():
    # the annotation filter must see every class's fields, or the scan
    # below passes vacuously
    assert all(_numeric_fields(cls) for cls in CONFIGS)
    read = _attributes_read()
    unread = [f"{cls.__name__}.{name}" for cls in CONFIGS
              for name in _numeric_fields(cls) if name not in read]
    assert unread == []
