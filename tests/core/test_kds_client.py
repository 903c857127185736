"""KDS client latency accounting and caching tests."""

import pytest

from repro.amd.kds import KeyDistributionServer
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.core.kds_client import KdsClient
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import LatencyModel, SimClock


@pytest.fixture
def setup():
    amd = AmdKeyInfrastructure(HmacDrbg(b"kds-client-tests"))
    kds = KeyDistributionServer(amd)
    chip = amd.provision_chip("kc-chip")
    clock = SimClock()
    model = LatencyModel(kds_rtt=0.4, kds_processing=0.0273)
    return amd, kds, chip, clock, model


class TestCaching:
    def test_first_fetch_charges_latency(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        assert clock.now == pytest.approx(0.4273)
        assert client.fetches == 1

    def test_cache_hit_is_free(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        after_first = clock.now
        client.get_vcek(chip.chip_id, chip.current_tcb)
        assert clock.now == after_first
        assert client.cache_hits == 1

    def test_cache_disabled_always_fetches(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.fetches == 2
        assert clock.now == pytest.approx(2 * 0.4273)

    def test_tcb_update_invalidates_cache_key(self, setup):
        amd, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        from repro.amd.tcb import TcbVersion

        chip.update_tcb(TcbVersion(9, 9, 9, 250))
        client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.fetches == 2

    def test_chain_cached(self, setup):
        _, kds, _, clock, model = setup
        client = KdsClient(kds, clock, model)
        client.cert_chain()
        client.cert_chain()
        assert client.fetches == 1

    def test_clear_cache(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        client.clear_cache()
        client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.fetches == 2

    def test_trust_anchor_is_local(self, setup):
        _, kds, _, clock, model = setup
        client = KdsClient(kds, clock, model)
        assert client.trust_anchor == kds.ark_certificate
        assert clock.now == 0.0  # pinned, never fetched


class TestBundledChain:
    """The KDS bundles the ASK/ARK chain with every VCEK response, so a
    full VCEK+chain verification costs exactly one round trip — with or
    without caching."""

    def test_chain_rides_along_with_vcek(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        client.cert_chain()
        assert client.fetches == 1
        assert clock.now == pytest.approx(0.4273)

    def test_chain_free_even_with_cache_disabled(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        after_vcek = clock.now
        chain = client.cert_chain()
        assert chain  # served from the bundled response
        assert client.fetches == 1
        assert clock.now == after_vcek
        # The bundle is not a cache hit: the counters stay honest.
        assert client.cache_hits == 0

    def test_uncached_session_charges_one_trip_per_vcek(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        for _ in range(3):  # three fresh attestations of the same chip
            client.get_vcek(chip.chip_id, chip.current_tcb)
            client.cert_chain()
        assert client.fetches == 3
        assert clock.now == pytest.approx(3 * 0.4273)

    def test_standalone_chain_fetch_still_charged(self, setup):
        _, kds, _, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        client.cert_chain()  # no prior VCEK response to ride along with
        assert client.fetches == 1
        assert clock.now == pytest.approx(0.4273)

    def test_clear_cache_drops_bundled_chain(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        client.get_vcek(chip.chip_id, chip.current_tcb)
        client.clear_cache()
        client.cert_chain()
        assert client.fetches == 2


class TestRequestCoalescing:
    """Concurrent VCEK fetches for the same chip share one in-flight
    request (health-probe rounds measure in isolated clock scopes that
    share a base time, so their fetches overlap)."""

    def test_overlapping_fetches_share_one_round_trip(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        with clock.isolated() as first:
            client.get_vcek(chip.chip_id, chip.current_tcb)
        with clock.isolated() as second:
            client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.fetches == 1
        assert client.coalesced_hits == 1
        # The joiner waits out the full remaining flight time: same
        # latency as the original request, but no second round trip.
        assert second.elapsed == pytest.approx(first.elapsed)

    def test_joiner_pays_only_remaining_flight_time(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
        clock.advance(0.2)  # the base timeline catches up mid-flight
        with clock.isolated() as late:
            client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.coalesced_hits == 1
        assert late.elapsed == pytest.approx(0.4273 - 0.2)

    def test_completed_flight_is_not_joined(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        client.get_vcek(chip.chip_id, chip.current_tcb)  # lands on base time
        client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.fetches == 2
        assert client.coalesced_hits == 0

    def test_joined_response_still_populates_cache_and_chain(self, setup):
        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model)
        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
            client.clear_cache()  # forget the cache, not the flight
            # clear_cache drops the in-flight table too; refetch to get
            # a live flight with an empty cache.
            client.get_vcek(chip.chip_id, chip.current_tcb)
            client._vcek_cache.clear()
            client._chain_cache = None
        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.coalesced_hits == 1
        assert len(client._vcek_cache) == 1
        assert client.cert_chain()  # served from the bundled chain

    def test_different_tcb_does_not_coalesce(self, setup):
        amd, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        from repro.amd.tcb import TcbVersion

        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
        chip.update_tcb(TcbVersion(9, 9, 9, 250))
        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.fetches == 2
        assert client.coalesced_hits == 0

    def test_blackholed_kds_never_joins_inflight(self, setup):
        """Fail closed: while the WAN path is down only the local cache
        may answer — an in-flight response must not be joined."""
        from repro.net.simnet import NetworkError
        from repro.scenarios.injectors import KdsBlackhole

        _, kds, chip, clock, model = setup
        client = KdsClient(kds, clock, model, cache_enabled=False)
        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
        blackhole = KdsBlackhole(client)
        with clock.isolated():
            with pytest.raises(NetworkError):
                blackhole.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.coalesced_hits == 0
        # Route restored: the real client joins the in-flight fetch.
        with clock.isolated():
            client.get_vcek(chip.chip_id, chip.current_tcb)
        assert client.coalesced_hits == 1
