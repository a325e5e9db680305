"""``tools/output_digest.py`` gives one stable digest per dataset."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "output_digest.py")


def test_digest_is_one_line_and_repeats():
    lines = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, TOOL, "cold-mf:0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout)
    assert re.fullmatch(r"cold-mf 0 [0-9a-f]{64}\n", lines[0]), lines[0]
    assert lines[1] == lines[0]
