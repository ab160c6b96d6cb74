"""The command line: each command builds only its own parser, help and
usage errors read as they did with the whole parser tree, and a command
that evaluates nothing never loads numpy."""

import argparse
import hashlib
import os
import subprocess
import sys

import pytest

from idleclimb import master, simharness, worker

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MAINS = {"master": master.main, "worker": worker.main, "sim": simharness.main}

# sha256 over repr((exit code, stdout, stderr)) at 80 columns, as each main
# printed it when every call built the whole subparser tree.
TREE_OUTPUT_PINS = {
    "master -h": "0b6c1be9a052bbc4cdf77f446e1cc8c93d3ade74de18627ece89f8dcd4823f81",
    "master": "602e5b87bb1d9b55e42567db342bff764c6da8ee670cda6561905c13ac8c3381",
    "master bogus": "4014d66fadbdd5086e40e238d1e886684d9756d8bcafb74744a8ff4dec120466",
    "master init -h": "ce41e8bb7516d9727a7d4a211713afd4374c66a1d38eb158f41c6d43c1bf5bd1",
    "master start -h": "05d3ba41e2854a421bc7f8fa03d29ed73f6fad0ea898042c39edbcd3e66e1086",
    "master stop -h": "8ebc0f6067182701e89eae13547233676765e852a787fd2169020a898550052b",
    "master status -h": "4710cf215de6f95c67485f258582abe0b5503902fb87c52e10705ad87ade9927",
    "master report -h": "a0993f25d0d43e5da2543a5ee13cf3c609858b5129007bbeb8fde0fe12a1b0bd",
    "master init": "979bbb3d5a27714cd3791cb088a6fe57dc0854ba85cfdeac1b76ea191515aaa1",
    "master status d --bogus": "460c24f665fc71ee9a431f057799ab8e2f40362dbd63df51053fcfde84fb3bfd",
    "master init d --seed x": "192a5cfe7825743a7831824767713e7d8af580cf9805551762c5a0cabad2cb00",
    "master --bogus status d": "460c24f665fc71ee9a431f057799ab8e2f40362dbd63df51053fcfde84fb3bfd",
    "worker -h": "23ce78ba20c71b303b57605f5188a57a240ef4d7dc4c4ae458fa46b9286f5fde",
    "worker": "58d72df0898b4c8a6acc153860937ded763f54c40a98768c4914f4189619decf",
    "worker bogus": "4a4ee161b9ba7756defe7c8d351f320dfc72e3ee01b1e02ba8a425632d25f2fd",
    "worker run -h": "354c51a42a61691154081cca1c912d9bed39249109e70384732d270d4366270a",
    "worker probe -h": "4d8cf613b9bdc96cbb5be53776ca786aedcbba3076ac6f70827ec84d75d96563",
    "worker tick -h": "c6def3741bf1ab2b63db8b55fd18d67bccbd435f4e2db0d773c2657ad49ca952",
    "worker tick --now 1": "1157db8cc6142d927a2942e795f8e533fb915385f17cd1b6f70355d23588ca87",
    "worker probe extra": "271900bec4f6c909a67893bc778c400c077b8630f818ff792ab59534d6fb6750",
    "sim -h": "f43d7c25007b1759c62dadd343941befe1d5352b8fe22eb5599f348b9e9c3b42",
    "sim": "3d0bb28b4bb2ec8a48f7e25a8e32832bf176aefc352508361a84cfddf06059c9",
    "sim bogus": "a03591842a69826cbe424326f8041c6ef45cb4538f88a6bfcc5c00fec27f86ef",
    "sim run -h": "7f3b7607d6b330e612225304aa9406262fa27c5a3d9ead0653b0c6a642c0db5e",
    "sim sweep -h": "fa6316ddbcadcc702517808a5cfabd4b469086e2ec770e303778c73c4535d383",
    "sim sweep": "226d24768c7256eb7d0a1cac03277c6f1a66041dd51f7d0559da518e390edb8e",
}


def invoke(capsys, main, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("case", sorted(TREE_OUTPUT_PINS))
def test_help_and_usage_errors_read_as_with_the_whole_tree(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    group, *argv = case.split()
    result = invoke(capsys, MAINS[group], argv)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == TREE_OUTPUT_PINS[case]


@pytest.fixture
def job_and_config(tmp_path, capsys):
    jobdir = str(tmp_path / "job")
    assert master.main(["init", jobdir]) == 0
    conf = tmp_path / "worker.conf"
    conf.write_text(f"job={jobdir}\nworker_id=w\n")
    capsys.readouterr()
    return jobdir, str(conf)


# Each known command with its exit code: run to its end, or to a failure
# after its arguments parsed.
KNOWN_COMMANDS = {
    "master init {tmp}/other": 0,
    "master start {job}": 0,
    "master status {job}": 0,
    "master report {job}": 0,
    "worker tick --config {conf} --now 0 --idle 0": 0,
    "worker run --config {tmp}/missing.conf": 2,
    "sim sweep --max-p 1 --max-evals 20": 0,
    "sim run --scenario {tmp}/missing.scenario": 2,
}


@pytest.mark.parametrize("case", KNOWN_COMMANDS)
def test_a_known_command_builds_one_parser(case, job_and_config, tmp_path, capsys,
                                           monkeypatch):
    jobdir, conf = job_and_config
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    group, *argv = case.format(job=jobdir, conf=conf, tmp=tmp_path).split()
    assert invoke(capsys, MAINS[group], argv)[0] == KNOWN_COMMANDS[case]
    assert built == [f"idleclimb {group} {argv[0]}"]


def test_commands_that_evaluate_nothing_never_load_numpy(job_and_config):
    jobdir, conf = job_and_config
    script = f"""
import sys
from idleclimb import cli
for argv in (["master", "start", {jobdir!r}], ["master", "status", {jobdir!r}],
             ["worker", "tick", "--config", {conf!r}, "--now", "0", "--idle", "0"],
             ["master", "stop", {jobdir!r}]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded before any evaluation"
from idleclimb.objective import PhaseMaskObjective
PhaseMaskObjective(length=8, level_count=2, target_order=1).evaluate((0,) * 8)
assert "numpy" in sys.modules, "the first evaluation did not load numpy"
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
