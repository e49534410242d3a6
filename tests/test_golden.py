"""Golden regression numbers: seed-pinned exact outputs.

Simulation behaviour must not drift silently.  These values were captured
from the current implementation with fixed seeds; a change here means the
model changed — which may be fine, but must be deliberate (update the
constants and say why in the commit).
"""

import pytest

from repro.bench import result_digest
from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.experiments.report import claimed_commands
from repro.network.topology import chain, paper_testbed
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def test_golden_two_node_counters():
    sim = Simulator()
    net = DtpNetwork(
        sim, chain(2), RandomStreams(42),
        skews={"n0": ConstantSkew(100.0), "n1": ConstantSkew(-100.0)},
    )
    net.start()
    sim.run_until(2 * units.MS)
    counters = [net.counter_of(n) for n in ("n0", "n1")]
    # Nominal ticks in 2 ms: 312500; the fast (+100 ppm) clock leads by ~31.
    assert counters[0] == 312531
    assert abs(counters[0] - counters[1]) <= 4


def test_golden_owd_measurement():
    sim = Simulator()
    net = DtpNetwork(sim, chain(2), RandomStreams(42))
    net.start()
    sim.run_until(500 * units.US)
    assert net.ports[("n0", "n1")].d == 44
    assert net.ports[("n1", "n0")].d == 44


def test_golden_testbed_fingerprint():
    """Counter fingerprint of the whole Figure 5 testbed at seed 7."""
    sim = Simulator()
    net = DtpNetwork(sim, paper_testbed(), RandomStreams(7))
    net.start()
    sim.run_until(units.MS)
    counters = {name: net.counter_of(name) for name in sorted(net.devices)}
    spread = max(counters.values()) - min(counters.values())
    assert spread <= 16
    # The maximum is set by the fastest oscillator drawn at seed 7.
    assert max(counters.values()) == 156262


def test_golden_determinism_across_runs():
    def fingerprint():
        sim = Simulator()
        net = DtpNetwork(sim, paper_testbed(), RandomStreams(1234))
        net.start()
        sim.run_until(units.MS)
        return tuple(net.counter_of(n) for n in sorted(net.devices))

    assert fingerprint() == fingerprint()

#: ``result_digest`` of every result each claimed command prints at
#: ``--quick``, by result name.  A deliberate change to an experiment's
#: model or sampling re-records its rows; anything else that moves one
#: changed a published number.
QUICK_RESULT_DIGESTS = {
    "ablation-alpha": (
        "19fc78c3ccdd4c4eb0fe0f42490695b39633eb495b473fd2b14827de0670f76f"
    ),
    "ablation-beacon-interval": (
        "2304e6dac5d08bd98ef90f9a7495f58ce1b128b44aff92ece074e2ecface213f"
    ),
    "ablation-bit-errors": (
        "845fc64a26d16fa8d7d8fb47b0a3bf2f5a2e936912d346e8dd25a8f77461c01a"
    ),
    "ablation-cable-asymmetry": (
        "7159c811e0f2f86f27667a40d31fdcfa42579fd3ead45ec2a0d852eb1a1f5bfa"
    ),
    "ablation-cdc": (
        "90fc67244f07f89b6a1c8365612e06d0e00fc202efcbda3fa87953a773fec271"
    ),
    "bounds-fat-tree-4": (
        "a732f6e09bfcc3a5c186f2c22954e9f35215ceb8c12712080e5a59799bfec50e"
    ),
    "bounds-hop-scaling": (
        "1bf49df4e0f8a1b5c1e016b1391d926481e8c9560bae7e768d78f264c9bb2525"
    ),
    "convergence-dtp": (
        "707f0eea3c84b6f5a9882f17ac083ff3732fb9f20c16d0d5590e26830571f7e6"
    ),
    "convergence-ptp": (
        "d1af03e906dce3e63cb4f2061c945901d0eed6b62ec8466b24f1831fc29c5b4c"
    ),
    "extension-boundary-cascade": (
        "3d698f1e671906331bcd8826cbcfada7f1fb2ef499dcbfad5ee1b65a951300be"
    ),
    "extension-spanning-tree": (
        "2549e90dd4a3cd32be839f3e7b481d793e45bc85edcf50caf8217bb6cd75285a"
    ),
    "extension-synce": (
        "b2dfb5ab8117d28b2fa7ea4eb5aa8ecd8017ceb132b4bf166019cbe3ab39b264"
    ),
    "fig6-dtp-jumbo": (
        "28163b3dd83947376312f6405451a6022f2fb0b204d32d2070e8fc0dc2fa4a2d"
    ),
    "fig6-dtp-mtu": (
        "fdcb590a24b0eedd60c10555e2717a50b919a8849052f6ddd6934453dedb1c9d"
    ),
    "fig6-ptp-heavy": (
        "416c234f59e48c1dc71101186353d82c3195e098717ac78c1df65df0e9b7795f"
    ),
    "fig6-ptp-idle": (
        "bd665a2ab4695dd08675d85190efd92403413d69920869f484eb152dbdfa464e"
    ),
    "fig6-ptp-medium": (
        "6b17c054d063d213cc7b03895a0b8cf11101aa2ee393cec8b7468c08b691d04b"
    ),
    "fig6c-dtp-distribution": (
        "0e17076446552952c696b7b924261af934b72105a9b28ee4d28bdcbd5e5c2a9b"
    ),
    "fig7a-daemon-raw": (
        "49c893114c94f96e028e4c471482ffee2acffa84b5442a40595d4bd5bc2a28c9"
    ),
    "fig7b-daemon-smoothed": (
        "49b24c9aec2596bcd7702cd95e5034347e6bb2a7f3fdb998130fe0a6c8aa770b"
    ),
    "hybrid-dtp-assisted-ptp": (
        "8ccab1b7a1c11a8b8ec9015357bd6d1aec865b2e3b4972cc46b4f6b295d97fc5"
    ),
    "stability-mtie-adev": (
        "d86f0d9fa26ea6ad779c51dd497ee14f34c627f6c70aa3e3e4d92d6119a9eaba"
    ),
    "sweep-beacon-vs-skew": (
        "a9015e36a69096c7c6ea7e46ae94ee26481e8c78d7b24c247c2cf2d0d19d5585"
    ),
    "sweep-ber": (
        "e76e2ed4b9dcd429b50342d0b6a965fb63a9da0325328927a2321a76df5c4994"
    ),
    "sweep-cable-length": (
        "d510853057000f46811f19fa37f26c3f06249f784e0a2f39df44303249e5b185"
    ),
    "table1-protocol-comparison": (
        "1e4665d6790e9bcdbb42de899729a34ef9682975b507affac303a90f024ecc08"
    ),
    "table2-phy-speeds": (
        "daf4ed3a738a10060bf792f1328e5831fe1cb4bb3ae18322be8433df9e5cdc06"
    ),
}


@pytest.mark.parametrize("command", claimed_commands())
def test_golden_claimed_result_digests(command, quick_run):
    results = quick_run(command)
    assert results, command
    for name, result in results.items():
        assert result_digest(result) == QUICK_RESULT_DIGESTS[name], name
