"""The static analysis gate: every lint rule fires on its seeded-violation
fixture, every suppression silences it, and the budget ratchets."""

import json
from pathlib import Path

import pytest

from repro.analysis import concurrency, run_analysis
from repro.analysis.budget import charge, load_budget, write_budget
from repro.analysis.concurrency import check_file
from repro.analysis.findings import parse_suppressions
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


# -- concurrency pass ----------------------------------------------------------


def test_pool_worker_mutation_flagged():
    findings = check_file(FIXTURES / "dmtcp/bad_pool_mutation.py")
    live = [f for f in findings if not f.suppressed]
    assert live and all(f.rule == "pool-region-mutation" for f in live)
    # both the touch() call and the generation read are reported
    assert any("touch()" in f.message for f in live)
    assert any("generation" in f.message for f in live)


def test_pool_worker_mutation_suppressed():
    findings = check_file(FIXTURES / "dmtcp/ok_pool_mutation.py")
    assert findings and all(f.suppressed for f in findings)


def test_shipped_capture_pipeline_is_clean(monkeypatch):
    """The real capture path must not trip its own checker — and the
    checker must still recognise the one pool call site there, or a
    rename of the receiver would blind the rule silently."""
    scanned = []

    class Recording(concurrency._WorkerBodyVisitor):
        def __init__(self):
            super().__init__()
            scanned.append(self)

    monkeypatch.setattr(concurrency, "_WorkerBodyVisitor", Recording)
    findings = check_file(REPO / "src/repro/dmtcp/image.py")
    assert [f for f in findings if not f.suppressed] == []
    assert len(scanned) == 1


# -- suppression parsing -------------------------------------------------------


def test_parse_suppressions_multi_rule_and_star():
    allowed = parse_suppressions(
        "x = 1  # repro: allow(real-attr, wallclock)\n"
        "y = 2  # repro: allow(*)\n")
    assert allowed[1] == {"real-attr", "wallclock"}
    assert allowed[2] == {"*"}


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
    """`python -m repro.analysis src/` must exit 0 on the repo as shipped."""
    findings, violations, _slack = run_analysis(
        [str(REPO / "src")], budget_path=REPO / "analysis_budget.json")
    assert violations == [], "\n".join(
        [f.render() for f in findings if not f.suppressed] + violations)


def test_cli_fails_on_new_unsuppressed_debt(tmp_path):
    from repro.analysis.__main__ import main

    bad = FIXTURES / "upc/bad_real_struct.py"
    budget = tmp_path / "budget.json"
    budget.write_text("{}")
    assert main([str(bad), "--budget", str(budget)]) == 1
    # an adequate budget turns the same scan green
    budget.write_text(json.dumps({"real-struct": 9}))
    assert main([str(bad), "--budget", str(budget)]) == 0


def test_lint_paths_scans_directories_recursively():
    findings = lint_paths([str(FIXTURES)])
    rules = {f.rule for f in findings}
    assert set(LINT_CASES).issubset(rules)
