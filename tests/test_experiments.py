"""Integration tests: every experiment runs and its headline claims hold."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.report import Table
from repro.errors import ConfigurationError


def test_registry_covers_every_paper_artifact():
    expected = {
        "fig01", "fig02", "fig03", "fig04", "tab01", "fig08", "fig09",
        "fig10", "tab06", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_rejected():
    from repro.experiments import get_experiment

    with pytest.raises(ConfigurationError):
        get_experiment("fig99")


@pytest.fixture(scope="module")
def results():
    """Run each experiment once in quick mode; share across assertions."""
    return {
        exp_id: run_experiment(exp_id, quick=True) for exp_id in EXPERIMENTS
    }


def test_every_experiment_renders(results):
    for exp_id, result in results.items():
        text = result.render()
        assert exp_id in text
        assert result.tables, exp_id


def test_fig01_extract_share_in_band(results):
    table = results["fig01"].tables[0]
    for share in table.column("extract"):
        assert 0.40 <= share <= 0.70
    trains = dict(zip(table.column("model"), table.column("train")))
    assert trains["GAT"] > trains["GCN"]


def test_fig02_ordering(results):
    table = results["fig02"].table("4 KiB random read (GB/s)")
    values = dict(zip(table.column("stack"), table.column("measured (DES)")))
    assert (
        values["posix"] < values["libaio"]
        < values["io_uring int"] < values["io_uring poll"]
        < values["SSD max (dashed)"]
    )


def test_fig03_kernel_overhead(results):
    for table in results["fig03"].tables:
        for value in table.column("fs+iomap"):
            assert value > 0.34


def test_fig04_most_sms_beyond_five(results):
    table = results["fig04"].tables[0]
    utilization = dict(
        zip(table.column("ssds"), table.column("sm_utilization_%"))
    )
    assert utilization[5] > 60
    assert utilization[8] == pytest.approx(100.0)
    assert utilization[1] < 20
    column = table.column("sm_utilization_%")
    assert column == sorted(column) and column[-1] == 100.0


def test_fig08_headline_throughput(results):
    table = results["fig08"].table(
        "random read, 4 KiB, vs SSD count (GB/s, model)"
    )
    last_row = table.rows[-1]
    by_name = dict(zip(table.columns, last_row))
    assert by_name["ssds"] == 12
    for name in ("cam", "spdk", "bam"):
        assert 18 < by_name[name] < 21
    assert by_name["posix"] < 3


def test_fig09_speedups_in_band(results):
    table = results["fig09"].tables[0]
    speedups = table.column("speedup")
    assert all(1.05 < s < 1.95 for s in speedups)
    rows = {(r[0], r[1]): r[4] for r in table.rows}
    assert rows[("Paper100M", "GAT")] > rows[("Paper100M", "GCN")]


def test_fig10_orderings(results):
    sort_table = results["fig10"].tables[0]
    ratios = dict(zip(sort_table.column("system"),
                      sort_table.column("vs_posix")))
    assert ratios["cam"] > 1.15
    assert ratios["cam"] == pytest.approx(ratios["spdk"], rel=0.1)
    assert all(sort_table.column("verified"))
    gemm_table = results["fig10"].tables[1]
    times = dict(zip(gemm_table.column("system"),
                     gemm_table.column("time_ms")))
    assert times["cam"] < times["bam"] < times["gds"]
    assert all(gemm_table.column("verified"))


def test_fig11_sync_is_free(results):
    thr = results["fig11"].tables[0]
    for row in thr.rows:
        _, sync, raw, spdk = row
        assert sync == pytest.approx(raw, rel=0.2)
        assert sync == pytest.approx(spdk, rel=0.2)
    times = results["fig11"].tables[1]
    for row in times.rows:
        _, cam, spdk = row
        assert cam == pytest.approx(spdk, rel=0.1)


def test_fig12_decline_shape(results):
    table = results["fig12"].table("random read, 4 KiB (GB/s)")
    fraction = dict(
        zip(table.column("ssds_per_thread"),
            table.column("fraction_of_full"))
    )
    assert fraction[2] > 0.97
    assert 0.6 < fraction[4] < 0.85  # paper: ~75%
    assert fraction[12] < 0.35


def test_fig13_cost_relations(results):
    read = results["fig13"].tables[0]
    instr = dict(zip(read.column("system"), read.column("instructions")))
    cycles = dict(zip(read.column("system"), read.column("cycles")))
    assert instr["cam"] == pytest.approx(instr["spdk"], rel=0.05)
    assert instr["cam"] < instr["libaio"]
    assert cycles["cam"] < 0.2 * cycles["libaio"]
    write = results["fig13"].tables[1]
    write_instr = dict(
        zip(write.column("system"), write.column("instructions"))
    )
    assert write_instr["cam"] > instr["cam"]


def test_fig14_bounce_ratio(results):
    check = results["fig14"].tables[1]
    ratios = dict(zip(check.column("system"),
                      check.column("dram/ssd ratio")))
    assert ratios["spdk (read)"] == pytest.approx(2.0, abs=0.1)
    assert ratios["cam (read)"] == 0.0


def test_fig15_channel_sensitivity(results):
    read = results["fig15"].table("random read (GB/s)")
    rows = {row[0]: row for row in read.rows}
    _, cam_2c, cam_16c, cam_2c_des, cam_16c_des = rows["cam"]
    _, spdk_2c, spdk_16c, spdk_2c_des, spdk_16c_des = rows["spdk"]
    assert cam_2c == cam_16c
    assert cam_2c_des == cam_16c_des
    assert spdk_2c < 0.6 * spdk_16c
    assert spdk_2c_des < 0.7 * spdk_16c_des


def test_fig16_collapse(results):
    table = results["fig16"].tables[0]
    deficits = dict(zip(table.column("granularity"),
                        table.column("spdk_deficit_%")))
    assert deficits["4.0KiB"] > 90  # paper: 93.5%
    assert deficits["32.0MiB"] < 5


def test_tab01_properties(results):
    checks = results["tab01"].tables[1]
    dram_row = checks.rows[0]
    assert dram_row[1] > 0  # posix moved DRAM bytes
    assert dram_row[2] == 0  # bam did not
    assert dram_row[3] == 0  # cam did not
    sm_row = checks.rows[1]
    assert sm_row[2] > 0 and sm_row[3] == 0


def test_tab06_relations(results):
    relations = results["tab06"].tables[1]
    assert all(relations.column("holds"))


def test_table_helpers():
    table = Table("t", ["a", "b"])
    table.add_row(1, 2)
    with pytest.raises(ConfigurationError):
        table.add_row(1)
    with pytest.raises(ConfigurationError):
        table.column("c")
    assert table.column("a") == [1]
