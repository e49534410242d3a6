"""Tests for CLI dispatch and GPS-anchored UTC."""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.clocks.tsc import TscCounter
from repro.dtp.daemon import DtpDaemon
from repro.dtp.external import UtcMaster, UtcSlave
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.experiments import cli
from repro.gps.receiver import GpsReceiver
from repro.network.topology import chain
from repro.sim import units


class TestCli:
    def test_every_command_is_registered(self):
        for name in (
            "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
            "fig7", "table1", "table2", "bounds", "convergence",
            "ablations", "extensions", "stability",
        ):
            assert name in cli.COMMANDS

    def test_dispatch_runs_selected_command(self, monkeypatch, capsys):
        called = []
        monkeypatch.setitem(
            cli.COMMANDS, "fig6a",
            lambda options: called.append(options.quick) or ["ran"],
        )
        assert cli.main(["fig6a", "--quick"]) == 0
        assert called == [True]
        assert "ran" in capsys.readouterr().out

    def test_all_runs_everything_except_report(self, monkeypatch, capsys):
        ran = []
        for name in list(cli.COMMANDS):
            monkeypatch.setitem(
                cli.COMMANDS, name, (lambda n: lambda options: ran.append(n) or [])(name)
            )
        assert cli.main(["all"]) == 0
        expected = sorted(name for name in cli.COMMANDS if name != "report")
        assert sorted(ran) == expected

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figure-nine"])

    def test_hybrid_and_sweeps_registered(self):
        assert "hybrid" in cli.COMMANDS
        assert "sweeps" in cli.COMMANDS

    def test_csv_export_writes_files(self, tmp_path):
        from repro.experiments.harness import ExperimentResult, TimeSeries

        series = TimeSeries(label="pair")
        series.append(0, 1.0)
        series.append(10, 2.0)
        result = ExperimentResult(name="demo", series=[series])
        messages = cli.export_csv(result, str(tmp_path))
        assert len(messages) == 1
        content = (tmp_path / "demo.pair.csv").read_text().splitlines()
        assert content[0] == "time_fs,pair"
        assert content[1] == "0,1.0"
        assert content[2] == "10,2.0"


class TestGpsAnchoredUtc:
    def test_gps_source_feeds_broadcasts(self, sim, streams):
        net = DtpNetwork(
            sim, chain(2), streams,
            config=DtpPortConfig(beacon_interval_ticks=1200),
        )
        net.start()
        sim.run_until(units.MS)
        daemons = {}
        for name in ("n0", "n1"):
            tsc = TscCounter(skew=ConstantSkew(-4.0), name=f"tsc/{name}")
            daemons[name] = DtpDaemon(
                sim, net.devices[name], tsc, streams.stream(f"d/{name}"),
                sample_interval_fs=units.MS, smoothing_window=4,
            )
            daemons[name].start()
        sim.run_until(8 * units.MS)
        gps = GpsReceiver(streams.stream("gps"))
        master = UtcMaster(
            sim, daemons["n0"], utc_source=gps.read_fs,
            broadcast_interval_fs=4 * units.MS,
        )
        slave = UtcSlave(daemons["n1"])
        master.subscribe(slave)
        master.start()
        sim.run_until(40 * units.MS)
        error = slave.utc_error_fs(sim.now)
        assert error is not None
        # GPS noise (~100 ns) + daemon read error: within half a us.
        assert abs(error) < 500 * units.NS
