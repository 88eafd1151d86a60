"""The dirty-write escape pass: every rule fires on its seeded
fixture, suppressions silence it, the converted-call-site idioms stay
clean, stale waivers become findings, and the shipped tree passes."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, run_analysis
from repro.analysis.escape import ESCAPE_RULES, escape_file, escape_paths
from repro.analysis.findings import (STALE_RULE, parse_suppressions,
                                     stale_suppressions)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO = Path(__file__).parent.parent

#: rule → seeded-violation fixture; apps/ scopes outside memory/ and
#: faults/, so every rule applies (the lint-fixture convention)
ESCAPE_CASES = {
    "leaked-view-write": "apps/bad_leaked_view_write.py",
    "leaked-view-escape": "apps/bad_leaked_view_escape.py",
    "untracked-buffer-write": "apps/bad_untracked_buffer_write.py",
    "rng-taint": "apps/bad_rng_taint.py",
}

#: how many distinct seeded violations each bad fixture carries
EXPECTED_HITS = {
    "leaked-view-write": 6,
    "leaked-view-escape": 7,    # the literals line carries two
    "untracked-buffer-write": 4,
    "rng-taint": 4,
}


def _escape(rel):
    return escape_file(FIXTURES / rel, root=FIXTURES)


# -- seeded violations ---------------------------------------------------------


@pytest.mark.parametrize("rule,fixture", sorted(ESCAPE_CASES.items()))
def test_rule_fires_on_seeded_violation(rule, fixture):
    findings = _escape(fixture)
    hits = [f for f in findings if f.rule == rule and not f.suppressed]
    assert len(hits) == EXPECTED_HITS[rule], \
        f"{rule}: expected {EXPECTED_HITS[rule]} hit(s) on {fixture}, " \
        f"got {[f.render() for f in findings]}"
    assert all(f.rule == rule for f in findings), \
        f"unexpected extra rules on {fixture}: {findings}"


@pytest.mark.parametrize("rule,fixture", sorted(ESCAPE_CASES.items()))
def test_suppression_silences_rule(rule, fixture):
    ok = fixture.replace("bad_", "ok_")
    findings = _escape(ok)
    assert findings, f"suppressed fixture {ok} should still report debt"
    assert all(f.suppressed for f in findings), \
        f"unsuppressed finding survived in {ok}: {findings}"


def test_every_escape_rule_has_a_fixture():
    assert set(ESCAPE_CASES) == set(ESCAPE_RULES)
    assert set(ESCAPE_RULES) <= set(ALL_RULES)


# -- the legal idioms stay clean ----------------------------------------------


def test_converted_call_site_idioms_are_clean():
    """TrackedView writes and escapes, covered buffer touches, read-only
    peeks, app-namespace streams: zero findings."""
    assert _escape("apps/clean_chunk_discipline.py") == []


def test_memory_prefix_is_exempt():
    assert _escape("memory/clean_impl.py") == []


def test_faults_prefix_owns_the_fault_namespace():
    assert _escape("faults/clean_fault_stream.py") == []


def test_fixture_tree_scopes_like_the_package(tmp_path):
    """The same source flags outside memory/ and is exempt inside a
    tree that mirrors the package layout."""
    src = ("import numpy as np\n\n\ndef f(region):\n"
           "    return np.frombuffer(region.buffer)\n")
    outside = tmp_path / "apps" / "mod.py"
    inside = tmp_path / "memory" / "mod.py"
    for p in (outside, inside):
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
    assert [f.rule for f in escape_file(outside, root=tmp_path)] \
        == ["leaked-view-escape"]
    assert escape_file(inside, root=tmp_path) == []


# -- the acceptance-criteria regression: a reverted PR-7 call site ------------


def test_reverted_lu_leaked_view_diff_is_flagged(tmp_path):
    """Re-introducing the pre-PR-7 LU idiom — a raw writable buffer view
    stored on the kernel object and written in the iteration loop — must
    produce findings."""
    mod = tmp_path / "apps" / "nas" / "lu.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(textwrap.dedent("""\
        import numpy as np


        class LuKernel:
            def setup(self, region):
                self.u = np.frombuffer(region.buffer, dtype="f8")

            def sweep(self, region):
                u = np.frombuffer(region.buffer, dtype="f8")
                u[1:-1] += 0.25 * u[2:]
    """))
    findings = escape_file(mod, root=tmp_path)
    live = [f for f in findings if not f.suppressed]
    assert len(live) >= 2
    assert {f.rule for f in live} \
        == {"leaked-view-escape", "leaked-view-write"}


# -- stale suppressions --------------------------------------------------------


def test_dead_waiver_becomes_a_finding():
    path = FIXTURES / "apps/bad_stale_suppression.py"
    findings = stale_suppressions(path.read_text(), str(path),
                                  escape_file(path, root=FIXTURES))
    live = [f for f in findings if not f.suppressed]
    assert len(live) == 2           # the dead waiver and the typo
    assert all(f.rule == STALE_RULE for f in live)
    assert any("leaked-vew-write" in f.message for f in live)


def test_stale_suppression_is_itself_suppressible():
    path = FIXTURES / "apps/ok_stale_suppression.py"
    findings = stale_suppressions(path.read_text(), str(path),
                                  escape_file(path, root=FIXTURES))
    assert findings and all(f.suppressed for f in findings)


def test_used_waivers_are_not_stale():
    path = FIXTURES / "apps/ok_leaked_view_write.py"
    findings = stale_suppressions(path.read_text(), str(path),
                                  escape_file(path, root=FIXTURES))
    assert findings == []


def test_allow_in_docstring_is_inert():
    src = ('def f():\n'
           '    """mentions # repro: allow(wallclock) in prose"""\n'
           '    return 1\n')
    assert parse_suppressions(src) == {}


def test_partial_run_spares_other_passes_waivers(tmp_path):
    """An escape-only run must not condemn a lint-rule waiver it never
    evaluated (the ``eligible`` filter)."""
    mod = tmp_path / "apps" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("x = object().real  # repro: allow(real-attr)\n")
    findings, _violations, _slack = run_analysis(
        [str(tmp_path)], budget_path=tmp_path / "none.json",
        passes=("escape", "stale"))
    assert [f for f in findings if f.rule == STALE_RULE] == []
    # the full run does evaluate real-attr — and the waiver is used
    findings, violations, _slack = run_analysis(
        [str(tmp_path)], budget_path=tmp_path / "none.json")
    assert violations == []
    assert [f for f in findings if f.rule == STALE_RULE] == []


# -- the gate on the shipped tree ---------------------------------------------


def test_shipped_tree_escape_clean():
    """The escape pass over src/repro as shipped: zero unsuppressed
    findings (the PR-7 converted call sites hold the discipline)."""
    findings = escape_paths([str(REPO / "src")])
    assert [f.render() for f in findings if not f.suppressed] == []


def test_shipped_tree_has_no_stale_waivers():
    findings, violations, _slack = run_analysis(
        [str(REPO / "src")], budget_path=REPO / "analysis_budget.json")
    assert [f.render() for f in findings
            if f.rule == STALE_RULE] == []
    assert violations == []


def test_cli_escape_flag(tmp_path, capsys):
    from repro.analysis.__main__ import main

    bad = FIXTURES / "apps/bad_rng_taint.py"
    budget = tmp_path / "budget.json"
    budget.write_text("{}")
    assert main([str(bad), "--budget", str(budget), "--escape"]) == 1
    out = capsys.readouterr().out
    assert "rng-taint" in out
