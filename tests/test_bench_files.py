"""The committed benchmark trajectory: every `BENCH_*.json` at the
repository root parses, every run in it is correct with no failed op, and
every run's output digest is the stored seed digest of its workload.

A BENCH file records runs of `python3 perfbench/run.py`, each with its
workload, seed and seconds, the verbatim `output_sha256` line and the
verbatim last line (`{"correct", "attempted", "failed", "metrics"}`).
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

# perfbench/baseline.json still stores a stale cli-roundtrip digest; this is
# the seed-0 digest that CI gates as a literal
CLI_ROUNDTRIP_SHA256 = "f5c33e7ef6cfdb317b4bd39f179cb81a790fd0526648260d2b4615386f28ebc5"


def _stored_digest(workload, seed):
    if workload == "cli-roundtrip" and seed == 0:
        return CLI_ROUNDTRIP_SHA256
    stored = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["output_sha256"]
    return stored[workload][str(seed)]


def test_the_trajectory_has_started():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_run_is_correct_with_the_stored_digest(path):
    doc = json.loads(path.read_text())
    assert doc["runs"], path.name
    for i, run in enumerate(doc["runs"]):
        where = f"{path.name} run {i} ({run['workload']}, {run['side']})"
        last = json.loads(run["last_line"])
        assert last["correct"] is True and last["failed"] == 0, where
        assert last["attempted"] > 0, where
        digest = re.fullmatch(r"\s*output_sha256 = ([0-9a-f]{64}) \(.*\)",
                              run["output_sha256_line"])
        assert digest, where
        assert digest.group(1) == _stored_digest(run["workload"], run["seed"]), where
