import re
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _digests(*args) -> list:
    run = subprocess.run(
        [sys.executable, str(DIGESTS), *args],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return run.stdout.splitlines()


def test_digests_compare_a_checkout_with_itself(tmp_path):
    """``--compare`` against a ``--save`` of the same checkout reads
    ``max_rel_diff 0`` on every hashed line and prints the saved lines
    unchanged; the one stage that raises is convex ``ve`` (criterion 4)."""
    saved = _digests("--save", str(tmp_path))
    compared = _digests("--compare", str(tmp_path))
    hashed = [line for line in compared if " max_rel_diff " in line]
    digests = [line for line in saved if re.fullmatch("[0-9a-f]{64}", line.split()[-1])]
    assert len(hashed) == len(digests)
    assert all(line.endswith(" max_rel_diff 0") for line in hashed)
    assert [line.split(" max_rel_diff ")[0] for line in compared] == saved
    raised = [line for line in compared if " raised " in line]
    assert len(raised) == 1
    assert raised[0].startswith("convex-h12 ve preconditioner raised ConstraintError")
