"""Byte identity: fixed-seed runs write the metrics.csv and final.ckpt whose
sha256 tests/golden.json holds.

The bits depend on numpy, the BLAS build and the CPU as well as on the code,
so on a host whose fingerprint differs from the recorded one the test skips.
scripts/record_golden.py re-records the file.
"""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text())
RECORDER = runpy.run_path(str(ROOT / "scripts" / "record_golden.py"))


@pytest.mark.parametrize("name", sorted(RECORDER["RUNS"]))
def test_run_is_byte_identical_to_golden(name, tmp_path):
    here = RECORDER["fingerprint"]()
    if here != GOLDEN["fingerprint"]:
        pytest.skip(f"golden bits were recorded on {GOLDEN['fingerprint']}; "
                    f"this host is {here}")
    expected = GOLDEN["runs"][name]
    got = RECORDER["record"](RECORDER["RUNS"][name], tmp_path)
    if got["metrics_csv_sha256"] != expected["metrics_csv_sha256"]:
        old, new = expected["metrics_csv"], got["metrics_csv"]
        line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                    min(len(old), len(new)))
        pytest.fail(f"{name}: metrics.csv first differs at line {line + 1}\n"
                    f"  golden: {old[line] if line < len(old) else '<end of file>'}\n"
                    f"  now:    {new[line] if line < len(new) else '<end of file>'}")
    assert got["final_ckpt_sha256"] == expected["final_ckpt_sha256"], \
        f"{name}: final.ckpt differs from golden (metrics.csv is identical)"
