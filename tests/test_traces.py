"""Golden outputs: the SHA-256 of `hytccp run` (JSONL and CSV), `hytccp explore` and
`hytccp parse` on the shipped models, and the state counts and reports of `explore`
on the generator corpora.

A change that means to keep behaviour keeps every value here.  A change that
means to alter one says so in CHANGES.md, with the reason.
"""
import hashlib
import json
from pathlib import Path

import pytest

from hytccp.cli import main
from hytccp.parser import parse_program
from hytccp.simulator import explore

from generators import bench_workloads, random_program, recursive_program, thermostat_source

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    ("run", "models/dam.hyt", "--max-time", "86400"):
        "34929191dac83e4107c120129fef37fa5fede1f78d9c5b44ed9f457173ecc7cc",
    ("run", "models/dam.hyt", "--max-time", "345600"):
        "ed95a31c9c90c71d738b8c215c75592ef4bd64dce44305812f8abae2ab0918c2",
    ("run", "models/dam.hyt", "--max-time", "21600", "--policy", "random", "--seed", "1"):
        "df983df1235b6b430e43893c98eb0d7191ae0a6b11d1531958945e8050734df1",
    ("run", "models/dam.hyt", "--max-time", "21600", "--policy", "random", "--seed", "2"):
        "1b81933ccba8d4a07ab4771a3879f857771921278f673c038f7b983172f642fe",
    ("run", "models/timer.hyt"): "4b5d4ee911b4f15dfcb293ab4f8fa634913adf7f4f1e7a6c328c408ac18c2136",
    ("run", "models/stop.hyt"): "37949821ecdf91fce5a8474c7275b1b465c2a83eae5a028bdb92961c413c7dd8",
    # exponential flows, evaluated in floats: this digest depends on the platform's libm
    ("run", "models/thermostat.hyt", "--max-time", "600"):
        "1c03cb3c77e8f136eae444c118aa86c035fe0084a9dd8359c2c08a8e31773da0",
    # two branches enabled at one instant: the scheduler picks, and these two seeds pick differently
    ("run", "models/walk.hyt", "--max-time", "100"):
        "8c02ae09a475882dd33908853c27f07ea6c7dfacf3e796487d640c7aedd67438",
    ("run", "models/walk.hyt", "--max-time", "100", "--policy", "random", "--seed", "1"):
        "a2aa6d3f3369c372a73994a8734944e5448ffd5b94767904996e30429f9c3195",
    ("run", "models/walk.hyt", "--max-time", "100", "--policy", "random", "--seed", "2"):
        "b315257643e09f43ff4a04bdb5dc647b2860963163948f37f786f3284d1a9253",
    # the CSV format: rational times, then float times from exponential flows (this digest depends on libm)
    ("run", "models/timer.hyt", "--format", "csv"): "d80a5a6636de200339a3cefc4793a1b6f195a2324609729cbf83be4df29ff9f9",
    ("run", "models/thermostat.hyt", "--max-time", "600", "--format", "csv"):
        "8d952ed1a066d0d0444142c9a5f933dc83faf196311686578febd04ef1ba2cff",
    # explore with one time sample: a time step keeps its parent's agent and discrete store
    # (thermostat's exponential flows are evaluated in floats: its digest depends on libm)
    ("explore", "models/thermostat.hyt", "--depth", "10", "--time-samples", "1"):
        "2599fa30e1aeb46acb6d66f19b8cb144c2554d345e4172c1ad171b1a75c75402",
    ("explore", "models/timer.hyt", "--depth", "10", "--time-samples", "1"):
        "f996f69f8af77b75561bb30f540d13b40021d11c8003da186afed5f79311e832",
    ("explore", "models/walk.hyt", "--depth", "10", "--time-samples", "1"):
        "7cc8442ce5c6d606120483026b9d03b406fe993d85f54283cf3bd93d43dfa92f",
    ("parse", "models/dam.hyt"): "030a25e06cf8b94b4c9ef03bfec8f18f332983d4f74d9484ed239fb742952bcb",
    ("parse", "models/timer.hyt"): "95f7fdf130405207ea1eb803bdb6a5f9f0764e30180dc64c554e4c0b7100bc9b",
    ("parse", "models/stop.hyt"): "36a609bd609420fbcc3b1fb730273ca3dffbd34231f2d3db96adb0610f05e29d",
}

# len(explore(random_program(s), 5).states) for s = 0..299, one digit each
RANDOM_COUNTS = (
    "343536434444363644346633444443334434434444433433464644543344634464444466344"
    "444464343464446345443444444354463444443344436364334664444464634564633433464"
    "454344443444444334464345334444444444744444344444686843464443644443443343454"
    "446444444433344344344634449444343334473443344443336444434944344446343366363"
)

# len(explore(recursive_program(s), 8, time_samples=1).states) for s = 0..11
RECURSIVE_COUNTS = [20, 16, 15, 15, 20, 22, 15, 15, 20, 22, 15, 22]

# SHA-256 of `hytccp run` on bench/workloads.thermostat_source(1) to 1500 s,
# seed 1.  Exponential flows are evaluated in floats, so this digest depends on
# the platform's libm (math.exp, math.log).
THERMOSTAT_DIGEST = "d7ebac3a8ad3254fd68812862b9f82a8506b1ffe6a123f63046494945313a540"

# SHA-256 of the explore reports of recursive_program(s), s = 0..11, at depth 8
# with one time sample: each report as sorted JSON, one a line
RECURSIVE_REPORTS_DIGEST = "1abb47c7b53aee87c4d35b2bcb5c88630488f8384e4a20dbbb21c0acf1122684"

# SHA-256 of the explore reports of random_program(s), s = 0..299, at depth 5:
# each report as sorted JSON, one a line
RANDOM_REPORTS_DIGEST = "6d711986e24f2ce70ee9df66007515896c75fc8bcddaa6edf8c8d752d5dd02ec"

# SHA-256 of the explore reports of the benchmark's corpus_explore programs
# (bench/workloads.corpus_job, seed 1), at depth 10 with one time sample:
# each report as sorted JSON, one a line
CORPUS_REPORTS_DIGEST = "edf60d954d7b5f922265f114b6663805293f30863884928ee86c2b5d7242ed65"


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_cli_output_digest(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


def test_random_program_state_counts():
    counts = "".join(str(len(explore(random_program(s), 5).states)) for s in range(300))
    assert counts == RANDOM_COUNTS


def test_recursive_program_state_counts():
    counts = [len(explore(recursive_program(s), 8, time_samples=1).states) for s in range(12)]
    assert counts == RECURSIVE_COUNTS


def test_thermostat_run_digest(tmp_path):
    model = tmp_path / "thermostats.hyt"
    model.write_text(thermostat_source(1))
    out = tmp_path / "out"
    assert main(["run", str(model), "--max-time", "1500", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == THERMOSTAT_DIGEST


def test_recursive_program_reports_digest():
    reports = (json.dumps(explore(recursive_program(s), 8, time_samples=1).to_json(), sort_keys=True) for s in range(12))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == RECURSIVE_REPORTS_DIGEST


def test_random_program_reports_digest():
    reports = (json.dumps(explore(random_program(s), 5).to_json(), sort_keys=True) for s in range(300))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == RANDOM_REPORTS_DIGEST


def test_corpus_explore_reports_digest():
    sources = bench_workloads().corpus_job(ROOT, 1)["sources"]
    reports = (json.dumps(explore(parse_program(s), 10, time_samples=1).to_json(), sort_keys=True) for s in sources)
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == CORPUS_REPORTS_DIGEST
