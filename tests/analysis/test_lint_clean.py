"""Tier-1 gate: the shipped package passes its own invariant checker.

This is the test that turns ``repro lint`` from a tool into a contract —
any PR that introduces a global-RNG draw, an unguarded declared-guarded
attribute, a tape poisoner, or a leaked resource fails here, not in a
flaky downstream reproduction run.
"""

import os

import repro
from repro.analysis import run_lint

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def test_src_is_finding_free():
    report = run_lint([PACKAGE_DIR])
    assert report.ok, "repro lint found violations:\n%s" % "\n".join(
        "%s:%d [%s] %s" % (f.path, f.line, f.rule, f.message)
        for f in report.findings
    )


def test_lint_actually_covered_the_tree():
    # Guard against a silent walk regression reporting "clean" on nothing.
    report = run_lint([PACKAGE_DIR])
    assert len(report.files) > 80
    linted = {os.path.relpath(path, PACKAGE_DIR) for path in report.files}
    for expected in (
        "cli.py",
        os.path.join("nn", "functional.py"),
        os.path.join("serve", "router.py"),
        os.path.join("serve", "frontend.py"),
        os.path.join("analysis", "engine.py"),
    ):
        assert expected in linted


def test_in_tree_suppressions_are_used_and_justified():
    # The einsum pragmas in nn/functional.py are the package's only
    # sanctioned suppressions: each must still match a live finding
    # (otherwise suppression-unused fires and test_src_is_finding_free
    # already failed) and carry a reason.
    report = run_lint([PACKAGE_DIR])
    assert report.suppressed, "expected the einsum-order pragmas to be live"
    for finding, suppression in report.suppressed:
        assert suppression.reason.strip()
        assert finding.rule in suppression.rule_ids
