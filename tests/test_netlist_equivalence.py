"""The netlist build and queries against their pre-rewrite reference.

The netlist builder draws its random numbers straight from
``getrandbits`` -- the rejection sampling ``choice``, ``randint`` and
``randrange`` perform -- :class:`~repro.netlist.netlist.Net` is a named
tuple built without an ``__init__``, and ``neighbors`` /
``resource_usage`` / ``cut_bandwidth`` skip the per-net tuples and
vectors they used to build.  ``tests/reference_partition.py`` holds the
code they replaced: the same stream consumed, the same netlist, the same
set order and the same floats.
"""

from __future__ import annotations

import random

import pytest

import repro.hls.frontend as frontend_mod
from repro.fabric.resources import ResourceVector
from repro.hls.frontend import HLSFrontend
from repro.hls.kernels import all_benchmarks
from repro.netlist.generator import NetlistBuilder
from repro.netlist.netlist import Net, Netlist
from repro.netlist.primitives import PrimitiveType

from tests.reference_partition import ReferenceNetlistBuilder, \
    reference_neighbors, reference_resource_usage

SEEDS = (0, 1, 2020, 987654321)


# ----------------------------------------------------------------------
# the random draws of the builder
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_nearby_index_draws_as_randint(seed):
    """n = 1..4096 (spans 1..512): the same index, the same RNG state."""
    new = NetlistBuilder("n", seed=seed)
    ref = ReferenceNetlistBuilder("r", seed=seed)
    draws = random.Random(seed)
    for n in range(1, 4097):
        i = draws.randrange(n)
        assert new._nearby_index(i, n) == ref._nearby_index(i, n), n
    assert new.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_bus_width_draws_as_choice(seed):
    new = NetlistBuilder("n", seed=seed)
    ref = ReferenceNetlistBuilder("r", seed=seed)
    widths = [new._bus_width() for _ in range(2000)]
    assert widths == [ref._bus_width() for _ in range(2000)]
    assert set(widths) == {16, 32, 64}
    assert new.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("macro_lut", (128, 256, 1024))
def test_table2_netlists_match_reference_builder(monkeypatch, macro_lut):
    """All 21 designs: the same primitives, nets and ports whichever
    builder draws them (shortcut widths included)."""
    specs = all_benchmarks()
    frontend = HLSFrontend(macro_lut=macro_lut)
    built = [frontend.synthesize(spec) for spec in specs]
    monkeypatch.setattr(frontend_mod, "NetlistBuilder",
                        ReferenceNetlistBuilder)
    for spec, netlist in zip(specs, built):
        want = frontend.synthesize(spec)
        assert netlist.primitives == want.primitives, spec.name
        assert list(netlist.nets.items()) == list(want.nets.items()), \
            spec.name
        assert netlist.ports == want.ports, spec.name


# ----------------------------------------------------------------------
# Net
# ----------------------------------------------------------------------
def test_net_is_immutable_equal_and_hashed_by_its_fields():
    netlist = Netlist("n")
    a, b, c = (netlist.add_primitive(PrimitiveType.LUT) for _ in range(3))
    uid = netlist.add_net(a, [b, c], width_bits=8, name="bus")
    net = netlist.nets[uid]
    twin = Net(uid=uid, driver=a, sinks=(b, c), width_bits=8, name="bus")
    assert net == twin and hash(net) == hash(twin)
    assert net != Net(uid=uid, driver=a, sinks=(b, c), width_bits=9,
                      name="bus")
    assert type(net) is Net and type(net.sinks) is tuple
    assert net.endpoints() == (a, b, c)
    assert repr(net) == ("Net(uid=0, driver=0, sinks=(1, 2), "
                         "width_bits=8, name='bus')")
    assert Net(uid=1, driver=2, sinks=(3,)) == Net(1, 2, (3,), 1, "")
    for field in ("uid", "driver", "sinks", "width_bits", "name"):
        with pytest.raises(AttributeError):
            setattr(net, field, 0)
    with pytest.raises(AttributeError):
        net.extra = 1


def test_add_net_keeps_its_checks():
    netlist = Netlist("n")
    a = netlist.add_primitive(PrimitiveType.LUT)
    with pytest.raises(KeyError):
        netlist.add_net(a + 1, [a])
    with pytest.raises(KeyError):
        netlist.add_net(a, [a + 1])
    with pytest.raises(ValueError):
        netlist.add_net(a, [a], width_bits=0)
    assert netlist.num_nets == 0


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def _random_netlist(seed: int) -> Netlist:
    rng = random.Random(seed)
    netlist = Netlist("r")
    uids = [netlist.add_primitive(
        PrimitiveType.MACRO,
        resources=ResourceVector(lut=rng.uniform(1, 300),
                                 dff=rng.uniform(1, 600),
                                 dsp=rng.choice((0.0, 0.25, 1.5)),
                                 bram_mb=rng.uniform(0, 0.1)))
        for _ in range(rng.randint(50, 600))]
    for _ in range(3 * len(uids)):
        driver = rng.choice(uids)
        netlist.add_net(driver, rng.choices(uids, k=rng.randint(1, 6))
                        + [driver] * (rng.random() < 0.1))
    return netlist


@pytest.mark.parametrize("seed", range(4))
def test_neighbors_iterate_in_the_reference_order(seed):
    """Set order decides the packer's score ties, so it is compared as
    a list, not as a set."""
    netlist = _random_netlist(seed)
    for uid in netlist.primitives:
        assert list(netlist.neighbors(uid)) \
            == list(reference_neighbors(netlist, uid))


@pytest.mark.parametrize("seed", range(4))
def test_resource_usage_sums_to_the_same_floats(seed):
    netlist = _random_netlist(seed)
    assert netlist.resource_usage() == reference_resource_usage(netlist)
    design = HLSFrontend(macro_lut=128).synthesize(
        all_benchmarks()[seed * 5])
    assert design.resource_usage() == reference_resource_usage(design)
