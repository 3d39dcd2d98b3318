import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from hapticbayes.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def test_gen_scenarios_writes_loadable_files(tmp_path, lib):
    from hapticbayes import load_scenario
    assert run_cli(["gen-scenarios", "--out", tmp_path]) == 0
    for name in ("scenario-1", "scenario-2", "scenario-3"):
        scenario = load_scenario(tmp_path / f"{name}.txt", lib)
        assert scenario.grid.theta == 1800


@pytest.mark.parametrize("command, flag", [
    (["gen-scenarios"], ["--seed", 1]),
    (["gen-scenarios"], ["--format", "json"]),
    (["dump-maps", "--scenario", "scenario-3.txt"], ["--format", "json"]),
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys,
                                                           command, flag):
    # these flags used to be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        run_cli(command + flag + ["--out", tmp_path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag[0]} {flag[1]}" in err


def test_classify_writes_confusion(tmp_path, capsys):
    assert run_cli(["classify", "--trials", 5, "--samples", 2,
                    "--seed", 0, "--out", tmp_path]) == 0
    lines = (tmp_path / "confusion.csv").read_text().splitlines()
    assert len(lines) == 11
    assert "wrote" in capsys.readouterr().out


def test_classify_seeded_runs_are_bit_identical(tmp_path):
    run_cli(["classify", "--trials", 5, "--samples", 2, "--seed", 3,
             "--out", tmp_path / "a", "--format", "json"])
    run_cli(["classify", "--trials", 5, "--samples", 2, "--seed", 3,
             "--out", tmp_path / "b", "--format", "json"])
    assert (tmp_path / "a/confusion.json").read_bytes() \
        == (tmp_path / "b/confusion.json").read_bytes()


def test_sweep_noise_json(tmp_path):
    assert run_cli(["sweep-noise", "--trials", 5, "--samples", 1,
                    "--samples", 2, "--noise-scale", 1.0,
                    "--noise-scale", 2.0, "--seed", 1,
                    "--out", tmp_path, "--format", "json"]) == 0
    payload = json.loads((tmp_path / "noise_sweep.json").read_text())
    assert payload["scales"] == [1.0, 2.0]
    assert np.asarray(payload["accuracy"]).shape == (2, 2)


def test_explore_on_generated_scenario(tmp_path):
    run_cli(["gen-scenarios", "--out", tmp_path])
    assert run_cli(["explore", "--scenario", tmp_path / "scenario-1.txt",
                    "--trials", 2, "--seed", 0, "--out", tmp_path,
                    "--format", "json"]) == 0
    payload = json.loads((tmp_path / "report_scenario-1.json").read_text())
    assert len(payload["trials"]) == 2


def test_dump_maps(tmp_path):
    run_cli(["gen-scenarios", "--out", tmp_path])
    out = tmp_path / "maps"
    assert run_cli(["dump-maps", "--scenario", tmp_path / "scenario-3.txt",
                    "--seed", 0, "--out", out]) == 0
    summary = json.loads((out / "trial.json").read_text())
    snapshots = list(out.glob("saliency_k*.txt"))
    assert len(snapshots) == summary["l"] - 1
    assert len(list(out.glob("*_k0000.txt"))) == 5


@pytest.mark.parametrize("seed, snapshots", [(0, 10), (11, 80)])
def test_dump_maps_reports_snapshots_written(tmp_path, capsys, seed, snapshots):
    # seed 0 ends by loop closure, seed 11 by budget (one snapshot more)
    run_cli(["gen-scenarios", "--out", tmp_path])
    out = tmp_path / "maps"
    assert run_cli(["dump-maps", "--scenario", tmp_path / "scenario-3.txt",
                    "--seed", seed, "--out", out]) == 0
    assert len(list(out.glob("omega_k*.txt"))) == snapshots
    assert f"wrote {snapshots} iteration snapshots" in capsys.readouterr().out


#: Per seed: files ``dump-maps`` writes for bundled scenario 3 (five field
#: grids per snapshot and ``trial.json``) and the SHA-256 of the lines
#: ``"<file name> <SHA-256 of its bytes>"``, one per file in name order.
DUMP_MAPS_DIGESTS = {
    0: (51, "a7ea79a16f7c3e7fb47f7c212b2fed68e04c775801eda8d4f8ede0b161713873"),
    11: (401, "d114f334614e2e8242e182d8f057599de12969064e5aaa4493b6f8cc2187195b"),
}


@pytest.mark.parametrize("seed", sorted(DUMP_MAPS_DIGESTS))
def test_dump_maps_files_are_pinned(tmp_path, seed):
    # seed 0 ends by loop closure, seed 11 by budget
    run_cli(["gen-scenarios", "--out", tmp_path])
    out = tmp_path / "maps"
    assert run_cli(["dump-maps", "--scenario", tmp_path / "scenario-3.txt",
                    "--seed", seed, "--out", out]) == 0
    files = sorted(out.iterdir())
    digest = hashlib.sha256()
    for path in files:
        digest.update(f"{path.name} "
                      f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    assert (len(files), digest.hexdigest()) == DUMP_MAPS_DIGESTS[seed]


def test_cli_error_is_machine_readable(tmp_path, capsys):
    code = run_cli(["explore", "--scenario", tmp_path / "missing.txt",
                    "--out", tmp_path])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert "error" in payload


def test_negative_seed_error_names_the_seed(tmp_path, capsys):
    assert run_cli(["classify", "--seed", -1, "--out", tmp_path]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError: seed must be an integer >= 0, got -1"


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "hapticbayes.cli", "classify", "--trials", "3",
         "--samples", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "confusion.csv").exists()


#: Runs every subcommand through ``cli.main`` in a fresh interpreter whose
#: import system refuses scipy, then prints the scipy modules loaded.
WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
import hapticbayes
from hapticbayes.cli import main

out = sys.argv[1]
for args in (["gen-scenarios"], ["classify", "--trials", "20"],
             ["sweep-noise", "--trials", "20"],
             ["explore", "--scenario", f"{out}/scenario-1.txt", "--trials", "2"],
             ["dump-maps", "--scenario", f"{out}/scenario-3.txt"]):
    code = main(args + ["--out", out])
    if code:
        sys.exit(f"{args[0]} exited {code}")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_runtime_runs_without_scipy(tmp_path):
    result = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "trial.json").exists()
