"""Tests for the ``python -m repro.trace`` CLI."""

import gzip
import json

import pytest

from repro.trace.cli import main
from repro.trace.pipeline import load_trace

SQUID = ("981172094.106 1523 10.0.0.1 TCP_MISS/200 4158 GET "
         "http://a.com/x.gif - DIRECT/a.com image/gif\n"
         "981172095.106 20 10.0.0.1 TCP_MISS/200 900 GET "
         "http://a.com/y.html - DIRECT/a.com text/html\n")


class TestGenerate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["generate", "dfn", "--scale", "0.0005",
                     "-o", str(out)]) == 0
        # Diagnostics go through the logging layer on stderr; stdout
        # stays reserved for results.
        assert "dfn-like requests" in capsys.readouterr().err
        trace = load_trace(out)
        assert len(trace) > 1000

    def test_irm_flag(self, tmp_path):
        out = tmp_path / "irm.csv"
        assert main(["generate", "rtp", "--scale", "0.0005", "--irm",
                     "-o", str(out), "--seed", "5"]) == 0
        assert load_trace(out)

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "dfn", "--scale", "0.0003", "--seed", "7",
              "-o", str(a)])
        main(["generate", "dfn", "--scale", "0.0003", "--seed", "7",
              "-o", str(b)])
        assert a.read_text() == b.read_text()


class TestConvert:
    def test_squid_to_csv(self, tmp_path, capsys):
        log = tmp_path / "access.log"
        log.write_text(SQUID)
        out = tmp_path / "out.csv.gz"
        assert main(["convert", str(log), str(out)]) == 0
        assert "wrote 2" in capsys.readouterr().err
        with gzip.open(out, "rt") as stream:
            assert stream.readline().startswith("timestamp,")

    def test_explicit_format(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text(SQUID)
        out = tmp_path / "out.csv"
        assert main(["convert", str(log), str(out),
                     "--format", "squid"]) == 0


class TestStatsAndCharacterize:
    def test_stats_line(self, tmp_path, capsys):
        log = tmp_path / "access.log"
        log.write_text(SQUID)
        assert main(["stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "2 requests" in out
        assert "2 documents" in out

    def test_characterize_tables(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["generate", "dfn", "--scale", "0.0005", "-o", str(out)])
        capsys.readouterr()
        assert main(["characterize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Trace properties" in text
        assert "% of Total Requests" in text
        assert "alpha" in text

    def test_no_locality_flag(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["generate", "dfn", "--scale", "0.0005", "-o", str(out)])
        capsys.readouterr()
        assert main(["characterize", str(out), "--no-locality"]) == 0
        assert "n/a" in capsys.readouterr().out


class TestSharedScaffold:
    def test_truncated_rcol_is_one_error_line(self, tmp_path, capsys):
        """A ReproError exits 2 with one ``error:`` line, as in the
        other CLIs, instead of escaping as a traceback."""
        rcol = tmp_path / "t.rcol"
        assert main(["generate", "dfn", "--scale", "0.0003",
                     "-o", str(rcol)]) == 0
        rcol.write_bytes(rcol.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["stats", str(rcol)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "truncated" in err[0]

    def test_telemetry_dir_writes_a_valid_manifest(self, tmp_path,
                                                   capsys):
        from repro.observability import validate_telemetry_dir

        log = tmp_path / "access.log"
        log.write_text(SQUID)
        run_dir = tmp_path / "telemetry"
        assert main(["stats", str(log), "--telemetry-dir",
                     str(run_dir)]) == 0
        assert "2 requests" in capsys.readouterr().out
        assert validate_telemetry_dir(run_dir) == []
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (manifest["kind"], manifest["status"]) == \
            ("trace-stats", "complete")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
