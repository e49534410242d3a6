"""Unit tests for DtpDevice (Algorithm 2)."""


from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.dtp.device import DtpDevice
from repro.dtp.port import DtpPort
from repro.sim import units

TICK = units.TICK_10G_FS


def make_device(sim, streams, name="dev", ppm=0.0):
    oscillator = Oscillator(TICK, ConstantSkew(ppm), name=name)
    return DtpDevice(sim, name, oscillator, streams.fork(name))


def test_global_counter_ticks(sim, streams):
    device = make_device(sim, streams)
    assert device.global_counter(10 * TICK) == 10


def test_single_port_device_is_nic(sim, streams):
    device = make_device(sim, streams)
    DtpPort(device, "p0")
    assert not device.is_switch


def test_multi_port_device_is_switch(sim, streams):
    device = make_device(sim, streams)
    DtpPort(device, "p0")
    DtpPort(device, "p1")
    assert device.is_switch


def test_local_jump_lifts_global_counter(sim, streams):
    device = make_device(sim, streams)
    port = DtpPort(device, "p0")
    t = 100 * TICK
    port.lc.set_counter(t, 10_000)
    assert device.on_local_jump(port, t) is True
    assert device.global_counter(t) == 10_000


def test_global_counter_never_decreases_from_jump(sim, streams):
    device = make_device(sim, streams)
    port = DtpPort(device, "p0")
    t = 100 * TICK
    device.gc.set_counter(t, 50_000)
    port.lc.set_counter(t, 10)
    assert device.on_local_jump(port, t) is False
    assert device.global_counter(t) == 50_000


def test_gc_takes_max_of_multiple_ports(sim, streams):
    device = make_device(sim, streams)
    a = DtpPort(device, "a")
    b = DtpPort(device, "b")
    t = 10 * TICK
    a.lc.set_counter(t, 500)
    b.lc.set_counter(t, 700)
    device.on_local_jump(a, t)
    device.on_local_jump(b, t)
    assert device.global_counter(t) == 700


def test_gc_keeps_ticking_after_jump(sim, streams):
    device = make_device(sim, streams)
    port = DtpPort(device, "p0")
    t = 10 * TICK
    port.lc.set_counter(t, 1_000)
    device.on_local_jump(port, t)
    assert device.global_counter(t + 5 * TICK) == 1_005
