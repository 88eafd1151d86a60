"""The static analysis gate: every lint rule fires on its seeded-violation
fixture, every suppression silences it, and any unsuppressed finding
fails the gate."""

from pathlib import Path

import pytest

from repro.analysis import run_analysis
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
    "unused-import": "apps/bad_unused_import.py",
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


def test_unused_import_flags_each_unread_name_and_spares_init(tmp_path):
    """One finding per unread module-level name; a package
    ``__init__.py`` imports to re-export, so it is never flagged."""
    findings = _lint("apps/bad_unused_import.py")
    assert sorted(f.message.split()[0] for f in findings) \
        == ["Optional", "os"]
    init = tmp_path / "pkg" / "__init__.py"
    init.parent.mkdir()
    init.write_text("from json import dumps\n")
    assert lint_file(init, root=tmp_path) == []


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


# -- the gate on the shipped tree ---------------------------------------------


def test_shipped_tree_has_no_unsuppressed_findings():
    """`python -m repro.analysis src/` must exit 0 on the repo as shipped,
    and no waiver in it is dead."""
    findings = run_analysis([str(REPO / "src")])
    assert [f.render() for f in findings if not f.suppressed] == []
    assert [f.render() for f in findings if f.rule == STALE_RULE] == []


@pytest.mark.parametrize("rule,fixture", sorted(
    dict(LINT_CASES, **{STALE_RULE: "apps/bad_stale_suppression.py"}).items()))
def test_cli_exits_1_on_an_unsuppressed_finding_only(rule, fixture, tmp_path,
                                                     capsys):
    """No budget: one unsuppressed finding of any rule fails the gate;
    the same finding, suppressed, is reported but passes.  Each fixture
    is scanned as a one-file tree so its directory still scopes it."""
    from repro.analysis.__main__ import main

    def scan(rel):
        tree = tmp_path / rel.replace("/", "_")
        (tree / rel).parent.mkdir(parents=True)
        (tree / rel).write_text((FIXTURES / rel).read_text())
        return main([str(tree)])

    assert scan(fixture) == 1
    assert f"[{rule}]" in capsys.readouterr().out
    assert scan(fixture.replace("bad_", "ok_")) == 0
    assert " 0 unsuppressed" in capsys.readouterr().out


def test_cli_json_counts_unsuppressed_findings(capsys):
    import json

    from repro.analysis.__main__ import main

    assert main(["--json", str(FIXTURES / "upc/bad_raw_id_compare.py")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["unsuppressed"] == 1
    assert [f["rule"] for f in report["findings"]] == ["raw-id-compare"]
    assert main(["--json", str(FIXTURES / "upc/ok_raw_id_compare.py")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unsuppressed"] == 0 and report["findings"]


def test_cli_reports_rng_taint(capsys):
    from repro.analysis.__main__ import main

    assert main([str(FIXTURES / "apps/bad_rng_taint.py")]) == 1
    out = capsys.readouterr().out
    assert out.count("rng-taint") >= 4
    assert "4 unsuppressed" in out


def test_lint_paths_scans_directories_recursively():
    findings = lint_paths([str(FIXTURES)])
    rules = {f.rule for f in findings}
    assert set(LINT_CASES).issubset(rules)
