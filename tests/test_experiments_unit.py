"""Unit tests for the experiment harness plumbing (no heavy runs)."""

import pytest

from repro.apps.nas import ep_app
from repro.experiments.runner import Outcome, run_nas
from repro.experiments.table2 import PAPER_DERIVED, derive
from repro.experiments.tables import Table
from repro.hardware import BUFFALO_CCR


def test_table_formatting_and_access():
    t = Table("Table X", "demo", ["a", "b"])
    t.add("row1", 1.234)
    t.add("row2", 567.8)
    t.note("hello")
    text = t.format()
    assert "Table X" in text and "row1" in text and "note: hello" in text
    assert t.column("a") == ["row1", "row2"]
    assert t.row_dict(1) == {"a": "row2", "b": 567.8}


def test_table2_derivation_matches_paper_math():
    """Feeding the paper's own Table 1 into the decomposition must return
    the paper's Table 2 values (it is their exact two-equation fit)."""
    from repro.experiments.table1 import PAPER

    for nprocs, (classes, s_paper, r_paper) in PAPER_DERIVED.items():
        s, r = derive(PAPER, nprocs)
        assert s == pytest.approx(s_paper, abs=0.35)
        assert 100 * r == pytest.approx(r_paper, abs=0.35)


def test_table2_derive_missing_data_returns_none():
    assert derive({("C", 64): (10.0, 12.0)}, 64) is None


def test_run_nas_native_outcome_fields():
    out = run_nas(ep_app, BUFFALO_CCR, 2, ppn=1, under="native",
                  app_kwargs={"klass": "D", "iters_sim": 2})
    assert isinstance(out, Outcome)
    assert out.runtime > 0
    assert out.ok
    assert out.ckpt_seconds == 0.0


def test_run_nas_dmtcp_checkpoint_outcome_fields():
    out = run_nas(ep_app, BUFFALO_CCR, 2, ppn=1, under="dmtcp",
                  app_kwargs={"klass": "D", "iters_sim": 2},
                  checkpoint_after=1.0)
    assert out.ckpt_seconds > 0
    assert out.ckpt_image_mb > 0


def test_run_nas_rejects_unknown_under():
    with pytest.raises(ValueError):
        run_nas(ep_app, BUFFALO_CCR, 2, ppn=1, under="mystery")


def test_dmtcp_vs_native_checksum_equal():
    a = run_nas(ep_app, BUFFALO_CCR, 2, ppn=1, under="native",
                app_kwargs={"klass": "D", "iters_sim": 2})
    b = run_nas(ep_app, BUFFALO_CCR, 2, ppn=1, under="dmtcp",
                app_kwargs={"klass": "D", "iters_sim": 2})
    assert a.checksum == b.checksum


@pytest.mark.parametrize("argv, store", [([], False), (["--store"], True)])
def test_store_flag_reaches_table4_in_a_full_run(monkeypatch, argv, store):
    """``--store`` without ``--table 4`` routes Table 4 through the chunk
    store as well.  Every table's ``run`` is a recorder: nothing is
    simulated."""
    from repro import experiments
    from repro.experiments.__main__ import main

    calls = {}

    def recorder(number):
        def run(**kwargs):
            calls[number] = kwargs
            return Table(f"Table {number}", "recorded", ["row"])
        return run

    for number, module in experiments.TABLES.items():
        monkeypatch.setattr(module, "run", recorder(number))
    assert main(argv) == 0
    assert sorted(calls) == list(range(1, 10))
    assert calls[4] == {"store": store}
