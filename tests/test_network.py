"""Tests for the network emulation substrate."""

import numpy as np
import pytest

from repro.network.channel import Channel
from repro.network.latency import CLIENT_TO_EDGE, CROSS_COUNTRY, SAME_REGION, LinkProfile
from repro.network.topology import (
    CLOUD_XLARGE,
    EDGE_REGULAR,
    EDGE_SMALL,
    TRANSOCEANIC,
    WAN_LINKS,
    EdgeCloudTopology,
    MachineProfile,
    NetworkPath,
)


class TestLinkProfile:
    def test_transfer_time_includes_propagation_and_serialization(self):
        link = LinkProfile(name="l", propagation_delay=0.01, bandwidth_bytes_per_sec=1_000_000)
        assert link.transfer_time(1_000_000) == pytest.approx(1.01)

    def test_zero_bytes_costs_only_propagation(self):
        link = LinkProfile(name="l", propagation_delay=0.02, bandwidth_bytes_per_sec=1e6)
        assert link.transfer_time(0) == pytest.approx(0.02)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SAME_REGION.transfer_time(-1)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            LinkProfile(name="l", propagation_delay=-1, bandwidth_bytes_per_sec=1e6)
        with pytest.raises(ValueError):
            LinkProfile(name="l", propagation_delay=0, bandwidth_bytes_per_sec=0)

    def test_jitter_adds_delay(self):
        link = LinkProfile(
            name="l", propagation_delay=0.01, bandwidth_bytes_per_sec=1e9, jitter=0.005
        )
        rng = np.random.default_rng(0)
        with_jitter = [link.transfer_time(1000, rng=rng) for _ in range(100)]
        assert all(t >= 0.01 for t in with_jitter)
        assert np.std(with_jitter) > 0

    def test_cross_country_slower_than_same_region(self):
        size = 250_000
        assert CROSS_COUNTRY.transfer_time(size) > SAME_REGION.transfer_time(size)

    def test_client_edge_is_fast(self):
        assert CLIENT_TO_EDGE.transfer_time(250_000) < 0.05


class TestChannel:
    def test_send_records_transfer(self):
        channel = Channel(SAME_REGION)
        duration = channel.send(1000, timestamp=1.0, description="frame-0")
        assert duration > 0
        assert channel.transfer_count == 1
        assert channel.total_bytes == 1000
        assert channel.transfers[0].description == "frame-0"

    def test_total_bytes_accumulates(self):
        channel = Channel(SAME_REGION)
        channel.send(100)
        channel.send(250)
        assert channel.total_bytes == 350

    def test_profile_accessor(self):
        assert Channel(CROSS_COUNTRY).profile is CROSS_COUNTRY


class TestMachineProfiles:
    def test_small_edge_is_slower(self):
        assert EDGE_SMALL.compute_scale > EDGE_REGULAR.compute_scale

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineProfile(name="bad", vcpus=0, memory_gib=1, compute_scale=1)
        with pytest.raises(ValueError):
            MachineProfile(name="bad", vcpus=2, memory_gib=1, compute_scale=0)

    def test_cloud_machine_is_xlarge(self):
        assert CLOUD_XLARGE.name == "t3a.xlarge"


class TestEdgeCloudTopology:

    def test_default_is_regular_edge_different_location(self):
        default = EdgeCloudTopology.default()
        assert default.edge_machine == EDGE_REGULAR
        assert default.edge_cloud_link == CROSS_COUNTRY

    def test_same_location_setups_use_same_region_link(self):
        assert EdgeCloudTopology.small_edge_same_location().edge_cloud_link == SAME_REGION
        assert EdgeCloudTopology.regular_edge_same_location().edge_cloud_link == SAME_REGION

    def test_small_setups_use_small_edge(self):
        assert EdgeCloudTopology.small_edge_different_location().edge_machine == EDGE_SMALL


class TestNetworkPath:
    def test_path_latency_is_the_sum_of_its_hops(self):
        """The multi-hop pin: a path's transfer time equals the sum of
        each hop's transfer time (store-and-forward, jitter-free)."""
        path = WAN_LINKS["intercontinental"]
        for size in (0, 1_000, 250_000, 1_000_000):
            assert path.to_profile().transfer_time(size) == pytest.approx(
                sum(hop.transfer_time(size) for hop in path.hops)
            )

    def test_propagation_is_the_sum_of_hop_propagations(self):
        for path in WAN_LINKS.values():
            assert path.propagation_delay == pytest.approx(
                sum(hop.propagation_delay for hop in path.hops)
            )

    def test_bandwidth_is_bottlenecked_harmonically(self):
        path = NetworkPath(name="two", hops=(SAME_REGION, CROSS_COUNTRY))
        expected = 1.0 / (
            1.0 / SAME_REGION.bandwidth_bytes_per_sec
            + 1.0 / CROSS_COUNTRY.bandwidth_bytes_per_sec
        )
        assert path.bandwidth_bytes_per_sec == pytest.approx(expected)
        assert path.bandwidth_bytes_per_sec < CROSS_COUNTRY.bandwidth_bytes_per_sec

    def test_jitter_composes_in_quadrature(self):
        path = NetworkPath(name="two", hops=(SAME_REGION, CROSS_COUNTRY))
        expected = (SAME_REGION.jitter**2 + CROSS_COUNTRY.jitter**2) ** 0.5
        assert path.jitter == pytest.approx(expected)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            NetworkPath(name="empty", hops=())

    def test_wan_links_are_ordered_by_distance(self):
        size = 250_000
        same = WAN_LINKS["same-region"].to_profile().transfer_time(size)
        country = WAN_LINKS["cross-country"].to_profile().transfer_time(size)
        ocean = WAN_LINKS["intercontinental"].to_profile().transfer_time(size)
        assert same < country < ocean

    def test_intercontinental_path_crosses_the_ocean(self):
        assert TRANSOCEANIC in WAN_LINKS["intercontinental"].hops


class TestChannelRoundTrip:
    def test_round_trip_records_both_transfers(self):
        profile = LinkProfile(name="test", propagation_delay=0.005, bandwidth_bytes_per_sec=1e6)
        channel = Channel(profile)
        uplink, downlink = channel.round_trip(
            10_000, 2_000, timestamp=1.0, up_description="frame-0", down_description="labels-0"
        )
        assert uplink > downlink > 0
        assert channel.transfer_count == 2
        assert [record.description for record in channel.transfers] == ["frame-0", "labels-0"]
        assert channel.total_bytes == 12_000

    def test_round_trip_matches_two_sends(self):
        profile = LinkProfile(name="test", propagation_delay=0.005, bandwidth_bytes_per_sec=1e6, jitter=0.001)
        paired = Channel(profile, np.random.default_rng(3))
        split = Channel(profile, np.random.default_rng(3))
        assert paired.round_trip(10_000, 2_000) == (split.send(10_000), split.send(2_000))
