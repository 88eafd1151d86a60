"""The static analysis gate: every lint rule fires on its seeded-violation
fixture, every suppression silences it, and the budget ratchets."""

import json
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.budget import charge, load_budget, write_budget
from repro.analysis.findings import (STALE_RULE, parse_suppressions,
                                     stale_suppressions)
from repro.analysis.lint import LINT_RULES, lint_file, lint_paths

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO = Path(__file__).parent.parent

#: rule → (flagged fixture, suppressed fixture); scope comes from the
#: fixture's subdirectory, mirroring the package layout
LINT_CASES = {
    "real-struct": "upc/bad_real_struct.py",
    "real-attr": "upc/bad_real_attr.py",
    "raw-id-compare": "upc/bad_raw_id_compare.py",
    "wallclock": "sim/bad_wallclock.py",
    "unseeded-random": "faults/bad_unseeded_random.py",
    "bare-thread": "dmtcp/bad_bare_thread.py",
    "rng-taint": "apps/bad_rng_taint.py",
}


def _lint(rel):
    return lint_file(FIXTURES / rel, root=FIXTURES)


# -- one seeded violation per rule --------------------------------------------


@pytest.mark.parametrize("rule,fixture", sorted(LINT_CASES.items()))
def test_rule_fires_on_seeded_violation(rule, fixture):
    findings = _lint(fixture)
    hits = [f for f in findings if f.rule == rule and not f.suppressed]
    assert hits, f"{rule} did not fire on {fixture}"
    assert all(f.rule == rule for f in findings), \
        f"unexpected extra rules on {fixture}: {findings}"


@pytest.mark.parametrize("rule,fixture", sorted(LINT_CASES.items()))
def test_suppression_silences_rule(rule, fixture):
    ok = fixture.replace("bad_", "ok_")
    findings = _lint(ok)
    assert findings, f"suppressed fixture {ok} should still report debt"
    assert all(f.suppressed for f in findings), \
        f"unsuppressed finding survived in {ok}: {findings}"


def test_every_lint_rule_has_a_fixture():
    assert set(LINT_CASES) == set(LINT_RULES)


# -- wallclock over the core/ prefix (the ib_plugin drain/settle path) --------


def test_wallclock_fires_in_core_prefix():
    """core/ is a deterministic prefix: a host-clock settle deadline in
    the plugin path is flagged like one in sim/."""
    findings = _lint("core/bad_wallclock.py")
    hits = [f for f in findings
            if f.rule == "wallclock" and not f.suppressed]
    assert hits, "wallclock did not fire on core/bad_wallclock.py"


def test_wallclock_suppression_in_core_prefix():
    findings = _lint("core/ok_wallclock.py")
    assert findings and all(f.suppressed for f in findings)


def test_settle_path_has_no_wallclock_debt():
    """Regression: the drain/settle path reads only the sim clock — the
    settle window is a sim timeout (traced as a ``drain.settle`` span),
    and no wall-clock source hides anywhere in core/ or dmtcp/."""
    findings = lint_paths([str(REPO / "src/repro/core"),
                           str(REPO / "src/repro/dmtcp")])
    assert [f for f in findings
            if f.rule == "wallclock" and not f.suppressed] == []


# -- rng-taint: the faults/ namespace and wall-clock seeds --------------------


def test_rng_taint_flags_every_seeded_crossing():
    hits = [f for f in _lint("apps/bad_rng_taint.py") if not f.suppressed]
    assert len(hits) == 4, [f.render() for f in hits]


def test_faults_prefix_owns_the_fault_namespace():
    assert _lint("faults/clean_fault_stream.py") == []


def test_fixture_tree_scopes_like_the_package(tmp_path):
    """The same reserved-stream draw flags outside faults/ and is clean
    inside a tree that mirrors the package layout; a wall-clock seed
    flags on both sides."""
    src = ("import time\n\n\ndef f(rng):\n"
           "    return rng.fault_stream('net')\n\n\n"
           "def g(rng):\n"
           "    return rng.child(time.time())\n")
    outside = tmp_path / "apps" / "mod.py"
    inside = tmp_path / "faults" / "mod.py"
    for p in (outside, inside):
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)

    def taint_lines(path):
        return [f.line for f in lint_file(path, root=tmp_path)
                if f.rule == "rng-taint"]

    assert taint_lines(outside) == [5, 9]
    assert taint_lines(inside) == [9]


# -- suppression parsing -------------------------------------------------------


def test_parse_suppressions_multi_rule_and_star():
    allowed = parse_suppressions(
        "x = 1  # repro: allow(real-attr, wallclock)\n"
        "y = 2  # repro: allow(*)\n")
    assert allowed[1] == {"real-attr", "wallclock"}
    assert allowed[2] == {"*"}


def test_allow_in_docstring_is_inert():
    src = ('def f():\n'
           '    """mentions # repro: allow(wallclock) in prose"""\n'
           '    return 1\n')
    assert parse_suppressions(src) == {}


# -- stale suppressions --------------------------------------------------------


def _stale(rel):
    path = FIXTURES / rel
    return stale_suppressions(path.read_text(), str(path), _lint(rel))


def test_dead_waiver_becomes_a_finding():
    live = [f for f in _stale("apps/bad_stale_suppression.py")
            if not f.suppressed]
    assert len(live) == 2           # the dead waiver and the typo
    assert all(f.rule == STALE_RULE for f in live)
    assert any("real-atr" in f.message for f in live)


def test_stale_suppression_is_itself_suppressible():
    findings = _stale("apps/ok_stale_suppression.py")
    assert findings and all(f.suppressed for f in findings)


def test_used_waivers_are_not_stale():
    assert _stale("upc/ok_real_attr.py") == []


# -- budget ratchet ------------------------------------------------------------


def test_budget_zero_makes_any_finding_a_violation():
    findings = _lint("upc/bad_real_attr.py")
    violations, _ = charge(findings, {})
    assert violations and "real-attr" in violations[0]


def test_budget_covers_known_debt_and_reports_slack():
    findings = _lint("upc/bad_real_attr.py")
    violations, slack = charge(findings, {"real-attr": 5})
    assert violations == []
    assert slack and "ratchet the budget down" in slack[0]


def test_suppressed_findings_are_not_charged():
    findings = _lint("upc/ok_real_attr.py")
    violations, _ = charge(findings, {})
    assert violations == []


def test_write_budget_snapshots_unsuppressed_counts(tmp_path):
    findings = _lint("upc/bad_raw_id_compare.py")
    out = tmp_path / "budget.json"
    data = write_budget(findings, out)
    assert data == {"raw-id-compare": 1}
    assert load_budget(out) == data
    assert json.loads(out.read_text()) == data


# -- the gate on the shipped tree ---------------------------------------------


def test_shipped_tree_within_checked_in_budget():
    """`python -m repro.analysis src/` must exit 0 on the repo as shipped,
    and no waiver in it is dead."""
    findings, violations, _slack = run_analysis(
        [str(REPO / "src")], budget_path=REPO / "analysis_budget.json")
    assert violations == [], "\n".join(
        [f.render() for f in findings if not f.suppressed] + violations)
    assert [f.render() for f in findings if f.rule == STALE_RULE] == []


def test_cli_fails_on_new_unsuppressed_debt(tmp_path):
    from repro.analysis.__main__ import main

    bad = FIXTURES / "upc/bad_real_struct.py"
    budget = tmp_path / "budget.json"
    budget.write_text("{}")
    assert main([str(bad), "--budget", str(budget)]) == 1
    # an adequate budget turns the same scan green
    budget.write_text(json.dumps({"real-struct": 9}))
    assert main([str(bad), "--budget", str(budget)]) == 0


def test_cli_reports_rng_taint(tmp_path, capsys):
    from repro.analysis.__main__ import main

    bad = FIXTURES / "apps/bad_rng_taint.py"
    budget = tmp_path / "budget.json"
    budget.write_text("{}")
    assert main([str(bad), "--budget", str(budget)]) == 1
    out = capsys.readouterr().out
    assert out.count("rng-taint") >= 4
    assert "4 unsuppressed" in out


def test_lint_paths_scans_directories_recursively():
    findings = lint_paths([str(FIXTURES)])
    rules = {f.rule for f in findings}
    assert set(LINT_CASES).issubset(rules)
