"""Tests for fault-tolerant suite execution and its CLI flags."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import (
    ExperimentReport,
    _report_from_payload,
    _report_to_payload,
    run_suite,
)
from repro.resilience import CheckpointStore

import repro.experiments.runner as runner_module


class FakeRunner:
    """Scripted experiment runner: fails ``failures`` times, counts calls."""

    def __init__(self, experiment_id, failures=0):
        self.experiment_id = experiment_id
        self.failures = failures
        self.calls = 0

    def __call__(self, settings):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"{self.experiment_id} boom {self.calls}")
        return ExperimentReport(self.experiment_id, settings.scale_name,
                                f"text for {self.experiment_id}",
                                {"calls": self.calls})


@pytest.fixture
def fake_runners(monkeypatch):
    """Replace three real experiment ids with scripted runners."""
    runners = {eid: FakeRunner(eid)
               for eid in ("table1", "table2", "table3")}
    for eid, fake in runners.items():
        monkeypatch.setitem(runner_module._RUNNERS, eid, fake)
    return runners


class TestRunSuite:
    def test_runs_all_in_order(self, fake_runners):
        suite = run_suite(["table1", "table2", "table3"], scale="tiny")
        assert [r.experiment_id for r in suite.reports] == \
            ["table1", "table2", "table3"]
        assert suite.complete
        assert suite.executed == ["table1", "table2", "table3"]
        assert suite.resumed == []

    def test_failure_is_isolated(self, fake_runners):
        fake_runners["table2"].failures = 99
        suite = run_suite(["table1", "table2", "table3"], scale="tiny",
                          max_retries=1, sleep=lambda _: None)
        assert [r.experiment_id for r in suite.reports] == \
            ["table1", "table3"]
        (failure,) = suite.failures
        assert failure.experiment_id == "table2"
        assert failure.attempts == 2
        assert failure.error_type == "RuntimeError"

    def test_transient_failure_retried(self, fake_runners):
        fake_runners["table2"].failures = 1
        suite = run_suite(["table2"], scale="tiny", max_retries=1,
                          sleep=lambda _: None)
        assert suite.complete
        assert fake_runners["table2"].calls == 2

    def test_raise_policy_propagates(self, fake_runners):
        fake_runners["table1"].failures = 99
        with pytest.raises(RuntimeError):
            run_suite(["table1"], scale="tiny", max_retries=0,
                      failure_policy="raise", sleep=lambda _: None)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError):
            run_suite(["table1"], failure_policy="maybe")
        with pytest.raises(ExperimentError):
            run_suite(["table1"], resume=True)
        with pytest.raises(ExperimentError):
            run_suite(["no-such-experiment"])


class TestCheckpointResume:
    def test_killed_suite_resumes_only_unfinished(self, fake_runners,
                                                  tmp_path):
        """The acceptance scenario: a suite dies mid-way; re-invoking
        with resume re-runs only the experiments with no checkpoint."""
        fake_runners["table2"].failures = 1
        with pytest.raises(RuntimeError):
            run_suite(["table1", "table2", "table3"], scale="tiny",
                      checkpoint_dir=tmp_path, max_retries=0,
                      failure_policy="raise", sleep=lambda _: None)
        # Checkpoint inspection: exactly the completed work is on disk.
        assert CheckpointStore(tmp_path).completed_keys() == ["table1"]

        suite = run_suite(["table1", "table2", "table3"], scale="tiny",
                          checkpoint_dir=tmp_path, resume=True,
                          sleep=lambda _: None)
        assert suite.complete
        assert suite.resumed == ["table1"]
        assert suite.executed == ["table2", "table3"]
        # table1 ran exactly once across both invocations.
        assert fake_runners["table1"].calls == 1
        assert [r.experiment_id for r in suite.reports] == \
            ["table1", "table2", "table3"]
        assert CheckpointStore(tmp_path).completed_keys() == \
            ["table1", "table2", "table3"]

    def test_resumed_report_content_round_trips(self, fake_runners,
                                                tmp_path):
        run_suite(["table1"], scale="tiny", checkpoint_dir=tmp_path)
        suite = run_suite(["table1"], scale="tiny",
                          checkpoint_dir=tmp_path, resume=True)
        (report,) = suite.reports
        assert report.text == "text for table1"
        assert report.data == {"calls": 1}
        assert fake_runners["table1"].calls == 1

    def test_config_mismatch_reruns_instead_of_adopting(self,
                                                        fake_runners,
                                                        tmp_path):
        run_suite(["table1"], scale="tiny", checkpoint_dir=tmp_path)
        settings = ExperimentSettings.for_scale("tiny", seed=777)
        suite = run_suite(["table1"], scale="tiny", settings=settings,
                          checkpoint_dir=tmp_path, resume=True)
        assert suite.resumed == []
        assert suite.executed == ["table1"]
        assert fake_runners["table1"].calls == 2

    def test_other_revision_reruns_instead_of_adopting(self, fake_runners,
                                                       tmp_path,
                                                       monkeypatch):
        """A report checkpointed by other code (say, before a policy
        fix) is not this code's report: same settings, another
        revision, so it is re-run."""
        monkeypatch.setattr("repro.experiments.store.git_revision",
                            lambda: "before-fix")
        run_suite(["table1"], scale="tiny", checkpoint_dir=tmp_path)
        monkeypatch.setattr("repro.experiments.store.git_revision",
                            lambda: "after-fix")
        suite = run_suite(["table1"], scale="tiny",
                          checkpoint_dir=tmp_path, resume=True)
        assert suite.resumed == []
        assert suite.executed == ["table1"]
        assert fake_runners["table1"].calls == 2
        # ... and the re-run's checkpoint is what the new code adopts.
        suite = run_suite(["table1"], scale="tiny",
                          checkpoint_dir=tmp_path, resume=True)
        assert suite.resumed == ["table1"]
        assert fake_runners["table1"].calls == 2

    def test_on_report_distinguishes_checkpointed(self, fake_runners,
                                                  tmp_path):
        seen = []
        run_suite(["table1"], scale="tiny", checkpoint_dir=tmp_path,
                  on_report=lambda r, ckpt, _: seen.append(
                      (r.experiment_id, ckpt)))
        run_suite(["table1"], scale="tiny", checkpoint_dir=tmp_path,
                  resume=True,
                  on_report=lambda r, ckpt, _: seen.append(
                      (r.experiment_id, ckpt)))
        assert seen == [("table1", False), ("table1", True)]


class TestReportPayload:
    def test_round_trip(self):
        report = ExperimentReport("fig2", "tiny", "body",
                                  {"a": 1.5}, {"fig2.csv": "x,y\n1,2\n"})
        clone = _report_from_payload(_report_to_payload(report))
        assert clone == report


class TestCli:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["table1", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_failed_experiment_reported_and_nonzero_exit(
            self, fake_runners, capsys):
        fake_runners["table2"].failures = 99
        rc = main(["table2", "--scale", "tiny", "--quiet",
                   "--max-retries", "0"])
        assert rc == 1
        assert "table2 FAILED" in capsys.readouterr().err

    def test_checkpoint_and_resume_end_to_end(self, fake_runners,
                                              tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["table1", "--scale", "tiny",
                     "--checkpoint-dir", ckpt]) == 0
        # Status diagnostics go through the logging layer on stderr;
        # stdout carries only the report text.
        assert "table1 completed" in capsys.readouterr().err
        assert main(["table1", "--scale", "tiny",
                     "--checkpoint-dir", ckpt, "--resume"]) == 0
        assert "restored from checkpoint" in capsys.readouterr().err
        assert fake_runners["table1"].calls == 1

    def test_sweep_workers_flag_threads_into_settings(self,
                                                      monkeypatch):
        captured = {}

        def fake_run_suite(ids, scale, settings, **kwargs):
            captured["extra"] = settings.extra
            from repro.experiments.runner import SuiteResult
            return SuiteResult()

        monkeypatch.setattr("repro.experiments.cli.run_suite",
                            fake_run_suite)
        assert main(["table1", "--quiet", "--sweep-workers", "2",
                     "--cell-timeout", "30", "--max-retries", "3"]) == 0
        assert captured["extra"] == {"sweep_workers": 2,
                                     "max_retries": 3,
                                     "cell_timeout": 30.0}
        # The retired --engine flag is an ordinary unknown argument.
        with pytest.raises(SystemExit) as exit_info:
            main(["fig2", "--engine", "batched"])
        assert exit_info.value.code == 2
