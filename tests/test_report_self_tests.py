"""The demo report CLIs' ``--self-test`` gates, run under the test suite
as well as in CI: each builds its demo federation and checks its own
invariants, exiting 0 only when every check passes."""

import pytest

from repro.tools import cachereport, chaosreport, healthreport


@pytest.mark.parametrize(
    "tool", [cachereport, chaosreport, healthreport], ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_self_test_passes(tool, capsys):
    assert tool.main(["--self-test"]) == 0
