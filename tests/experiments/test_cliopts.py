"""The scaffold the model / network / serving sub-CLIs share."""

import json

import pytest

from repro.experiments.cli import main

#: One cheap workload-driven verb per sub-CLI.
VERBS = {
    "model": ["curve"],
    "network": ["run", "--n", "2"],
    "serving": ["replay"],
}
UNIFORM = ["--profile", "uniform", "--seed", "3"]


def manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


@pytest.mark.parametrize("cli", sorted(VERBS))
class TestSharedScaffold:
    def test_exactly_one_workload_source(self, cli, capsys):
        assert main([cli, *VERBS[cli]]) == 2
        assert "exactly one of --trace or --profile" in \
            capsys.readouterr().err
        assert main([cli, *VERBS[cli], "--trace", "x.csv",
                     *UNIFORM]) == 2
        assert "exactly one of --trace or --profile" in \
            capsys.readouterr().err

    def test_uniform_profile_loads(self, cli, capsys):
        assert main([cli, *VERBS[cli], *UNIFORM, "--irm"]) == 0
        assert capsys.readouterr().out

    def test_telemetry_run_is_named_and_finalized(self, cli, tmp_path,
                                                  capsys):
        assert main([cli, *VERBS[cli], *UNIFORM, "--telemetry-dir",
                     str(tmp_path / "ok")]) == 0
        assert manifest(tmp_path / "ok")["kind"] == \
            f"{cli}-{VERBS[cli][0]}"
        assert manifest(tmp_path / "ok")["status"] == "complete"
        # a ReproError (no workload source) fails the run, rc 2
        assert main([cli, *VERBS[cli], "--telemetry-dir",
                     str(tmp_path / "bad")]) == 2
        assert manifest(tmp_path / "bad")["kind"] == \
            f"{cli}-{VERBS[cli][0]}"
        assert manifest(tmp_path / "bad")["status"] == "failed"
