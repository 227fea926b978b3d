"""The chaos campaign holds its invariants in quick (CI) mode.

Every scenario — media faults, an offline device, reactor stalls and
crashes, mirrored-device failover, admission overload, and the fabric
scenarios (partition, flap, brownout, partition-during-resync) — must
satisfy: every offered request terminates exactly once (completed,
typed error, or shed), no duplicate completions, no hang, and the
mirrored crash scenario keeps a goodput floor.  The folding lives in
:func:`repro.experiments.extras.run_chaos`; this test keeps it honest
in tier-1, and the CI `gates` job runs the campaign as a blocking step.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.extras import chaos_scenario_names, run_chaos


def test_chaos_quick_invariants_hold():
    result = run_chaos(quick=True)
    assert result.tables, "chaos campaign produced no tables"
    seen = set()
    for table in result.tables:
        scenarios = table.column("scenario")
        seen.update(scenarios)
        verdicts = table.column("invariants_ok")
        failed = [
            scenario for scenario, ok in zip(scenarios, verdicts)
            if not ok
        ]
        assert not failed, f"chaos invariants failed: {failed}"
    assert {
        "baseline",
        "media_faults",
        "device_offline",
        "reactor_stall",
        "reactor_crash",
        "overload_4x",
        "mirrored_baseline",
        "mirrored_reactor_crash",
        "resize_during_stall",
        "resize_during_crash",
        "burst_then_idle",
        "net_partition",
        "net_flap",
        "net_brownout",
        "net_partition_during_resync",
    } <= seen


def test_chaos_only_filter_runs_the_selected_scenarios():
    result = run_chaos(quick=True, only=["net_partition"])
    seen = set()
    for table in result.tables:
        seen.update(table.column("scenario"))
        for ok in table.column("invariants_ok"):
            assert ok
    assert seen == {"net_partition"}


def test_chaos_only_rejects_unknown_scenarios():
    with pytest.raises(ConfigurationError, match="no_such_scenario"):
        run_chaos(quick=True, only=["no_such_scenario"])


def test_chaos_scenario_names_cover_the_campaign():
    names = chaos_scenario_names()
    assert len(names) == len(set(names))
    assert "net_partition" in names
    assert "baseline" in names
