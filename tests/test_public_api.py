"""Public-API surface freeze.

Downstream code imports from the paths documented in README and
docs/guide.md; this module pins those paths so refactors cannot break
them silently.
"""

import importlib

import pytest

import repro

#: (module, attribute) pairs the documentation promises.
DOCUMENTED_API = [
    ("repro", "simulate"),
    ("repro", "run_sweep"),
    ("repro", "cache_sizes_from_fractions"),
    ("repro", "generate_trace"),
    ("repro", "dfn_like"),
    ("repro", "rtp_like"),
    ("repro", "future_like"),
    ("repro", "uniform_profile"),
    ("repro", "fit_profile"),
    ("repro", "fidelity_report"),
    ("repro", "characterize"),
    ("repro", "estimate_alpha"),
    ("repro", "estimate_beta"),
    ("repro", "load_trace"),
    ("repro", "write_trace"),
    ("repro", "run_experiment"),
    ("repro", "make_policy"),
    ("repro", "Cache"),
    ("repro", "DocumentType"),
    ("repro", "Request"),
    ("repro", "Trace"),
    ("repro", "SimulationConfig"),
    ("repro", "SizeInterpretation"),
    ("repro.core", "ReplacementPolicy"),
    ("repro.core", "CacheEntry"),
    ("repro.core", "BeladyPolicy"),
    ("repro.core", "SecondHitAdmission"),
    ("repro.core", "PartitionedCache"),
    ("repro.core", "LatencyCost"),
    ("repro.core.belady", "compute_next_uses"),
    ("repro.network", "two_level"),
    ("repro.network", "sibling_mesh"),
    ("repro.network", "run_network"),
    ("repro.simulation", "run_sweep_parallel"),
    ("repro.simulation", "TTLModel"),
    ("repro.simulation.latency", "LatencyModel"),
    ("repro.analysis", "stack_profile"),
    ("repro.analysis", "approximate_byte_curve"),
    ("repro.analysis", "alpha_mle"),
    ("repro.analysis", "gini_coefficient"),
    ("repro.analysis", "working_set_series"),
    ("repro.analysis", "drift_report"),
    ("repro.analysis", "wilson_interval"),
    ("repro.analysis", "hit_rate_interval"),
    ("repro.trace", "TracePipeline"),
    ("repro.trace", "validate_trace"),
    ("repro.trace", "anonymize"),
    ("repro.trace", "thin"),
    ("repro.trace", "interleave"),
    ("repro.experiments", "EXPERIMENT_IDS"),
    ("repro.experiments", "write_report"),
    ("repro.experiments", "run_suite"),
    ("repro.experiments", "SuiteResult"),
    ("repro", "run_suite"),
    ("repro", "RetryPolicy"),
    ("repro", "retry_call"),
    ("repro", "CheckpointStore"),
    ("repro", "config_hash"),
    ("repro", "FaultInjector"),
    ("repro", "WorkerCrashError"),
    ("repro", "CellTimeoutError"),
    ("repro", "CheckpointError"),
    ("repro.resilience", "FaultSpec"),
    ("repro.resilience", "InjectedFaultError"),
    ("repro.simulation", "FailureRecord"),
    ("repro.simulation", "cell_key"),
    ("repro.trace.budget", "ErrorBudget"),
    ("repro.experiments.claims", "ClaimChecker"),
    ("repro.experiments.summary", "write_markdown_summary"),
    ("repro", "configure_logging"),
    ("repro", "get_logger"),
    ("repro", "enable_metrics"),
    ("repro", "disable_metrics"),
    ("repro", "get_registry"),
    ("repro", "TelemetryRun"),
    ("repro", "RunManifest"),
    ("repro", "ProgressReporter"),
    ("repro", "read_events"),
    ("repro", "validate_telemetry_dir"),
    ("repro.observability", "MetricsRegistry"),
    ("repro.observability", "EventLog"),
    ("repro.observability", "EVENT_SCHEMAS"),
    ("repro.observability", "PhaseTimings"),
    ("repro.observability", "phase_timer"),
    ("repro.observability", "maybe_profile"),
    ("repro.observability", "host_info"),
    ("repro.observability.logs", "JsonLinesFormatter"),
    ("repro.observability.validate", "validate_events_file"),
]


@pytest.mark.parametrize("module_name,attribute", DOCUMENTED_API)
def test_documented_path_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    assert hasattr(module, attribute), f"{module_name}.{attribute}"


def test_multi_cache_wrappers_are_gone():
    """``repro.network`` is the only way to simulate several caches."""
    with pytest.raises(ImportError):
        from repro.simulation import simulate_hierarchy  # noqa: F401
    with pytest.raises(ImportError):
        import repro.simulation.mesh  # noqa: F401


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_is_semver():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_policy_names_documented_in_guide():
    """Every registry name appears in docs/guide.md."""
    from pathlib import Path
    from repro.core.registry import POLICY_NAMES

    guide = (Path(__file__).resolve().parents[1]
             / "docs" / "guide.md").read_text()
    missing = [name for name in POLICY_NAMES
               if name not in guide and name.split("(")[0] not in guide]
    assert not missing, f"guide.md does not mention: {missing}"