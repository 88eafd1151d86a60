"""Schema and smoke test of the ledger.  Run explicitly (it is outside the
tier-1 ``testpaths`` because it spends ~40 s running the smoke set)::

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import spec  # noqa: E402
from tracing import fold_profile  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_stdout():
    proc = subprocess.run(RUN + ["--smoke", "--traced"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_manifest_is_the_projection_of_spec(manifest):
    assert manifest == spec.manifest()


def test_manifest_shape(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in manifest["end_to_end"])}]
    assert len(json.dumps(manifest)) < 64 * 1024


def test_every_per_layer_metric_says_what_it_moves():
    assert all(m.moves for m in spec.PER_LAYER)
    assert set(spec.SIZES["bench"]) == set(spec.WORKLOAD_NAMES)
    assert all(set(s) == set(spec.WORKLOAD_NAMES)
               for s in spec.SIZES.values())


def test_smoke_prints_every_metric_of_every_workload(smoke_stdout,
                                                     manifest):
    blocks = smoke_stdout.split("\n== ")[1:]
    assert [b.split()[0] for b in blocks] == spec.WORKLOAD_NAMES
    for block in blocks:
        printed = {}
        for line in block.splitlines()[1:]:
            parts = line.split()
            if len(parts) >= 3:
                printed[parts[0]] = parts[2]
        for m in manifest["end_to_end"] + manifest["per_layer"]:
            assert printed.get(m["name"]) == m["unit"], (block[:40], m)
        assert "failed 0," in block and "failed_share" in block


def test_smoke_split_is_valid(smoke_stdout):
    coverage = [float(line.split()[1])
                for line in smoke_stdout.splitlines()
                if line.split()[:1] == ["trace.coverage"]]
    assert len(coverage) == len(spec.WORKLOAD_NAMES)
    # the 0.95 bar is for the bench sizes; smoke bodies are so short that
    # interpreter noise is a visible share
    assert min(coverage) >= 0.90
    for name in spec.WORKLOAD_NAMES:
        with open(os.path.join(HERE, "out", f"trace_{name}.json")) as fh:
            detail = json.load(fh)
        assert detail["spans"] and detail["layers"]
        for span in detail["spans"]:
            assert {"name", "id", "parent", "host_start", "host_end",
                    "sim_start", "events"} <= set(span)


def test_contract_mode_last_line(manifest):
    proc = subprocess.run(
        RUN + ["--workload", "kernel_storm", "--seed", "7", "--seconds",
               "1", "--trace", "0"], cwd=ROOT, capture_output=True,
        text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in manifest["end_to_end"]}
    for m in manifest["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] != 0


def test_no_program_no_result(tmp_path):
    """In a directory with only BENCHMARK.json and the ledger, the
    command must fail without printing a result."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "kernel_storm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fold_hands_builtin_time_to_the_calling_layer():
    src = os.path.join(ROOT, "src", "repro")
    caller = (os.path.join(src, "dmtcp", "image.py"), 10, "_zlen")
    numpy_fn = ("/site-packages/numpy/core/x.py", 5, "helper")
    builtin = ("~", 0, "<built-in method zlib.compress>")
    orphan = ("~", 0, "<built-in method orphan>")
    stats = {
        caller: (3, 3, 1.0, 4.0, {}),
        # 2 s of zlib called straight from dmtcp, 1 s through numpy code
        # that dmtcp also called
        numpy_fn: (1, 1, 0.5, 1.5, {caller: (1, 1, 0.5, 1.5)}),
        builtin: (4, 4, 3.0, 3.0, {caller: (3, 3, 2.0, 2.0),
                                   numpy_fn: (1, 1, 1.0, 1.0)}),
        orphan: (1, 1, 0.25, 0.25, {}),
    }
    layers, calls = fold_profile(stats)
    assert layers["dmtcp"]["self_s"] == pytest.approx(4.5)
    assert layers["dmtcp"]["calls"] == 3
    assert layers["other"]["self_s"] == pytest.approx(0.25)
    assert calls == {"dmtcp:_zlen": 3}
