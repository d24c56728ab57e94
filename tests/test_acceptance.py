"""Acceptance gate: one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v -s` for the live matrix, or
`tstar repro` for the same checks through the CLI; both print the same
lines.
"""

import pytest

from tstar.acceptance import ACCEPTANCE_CHECKS, report


@pytest.mark.parametrize(
    "check", ACCEPTANCE_CHECKS,
    ids=[f"c{c.number:02d}-{c.slug}" for c in ACCEPTANCE_CHECKS])
def test_criterion(check):
    outcome = check.run()
    print(report(check, outcome))
    assert outcome.passed, (check.label, outcome.notes)
