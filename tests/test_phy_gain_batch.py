"""Batched gain-fill kernels vs the scalar oracle: bit-identity test net.

Every assertion in this module is exact (``==`` / ``array_equal``, never
``approx``): the batched fill path feeds the same golden-digest regression
nets as the scalar oracle, so a single ulp of drift in any kernel is a
silent fork of the physics.  The suite covers

* elementwise batch == scalar for every concrete path-loss model
  (hypothesis-driven distances incl. 0.0, subnormals and the 1 m clamp
  boundary),
* the probed vector-math layer (``repro.phy.vecmath``), whose routines
  must equal the ``math``-module scalar loop whichever way the
  once-per-process exactness probe resolved on this host,
* shadowing batch identity across sigmas (incl. 0.0), endpoint swap
  symmetry and the pinned ``:.1f`` key-quantization contract,
* antenna ``gains_towards`` identity for both patterns,
* full :class:`GainMatrixCache` builds (batched vs scalar fill mode)
  with antennas, shadowing and culling, plus the exact strict-``>``
  cull boundary,
* registry completeness: a new ``PathLossModel`` (or ``Antenna``)
  subclass fails here until it implements the batch API and registers a
  sample instance below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.network import LteNetworkSimulator
from repro.phy import vecmath
from repro.phy.antenna import Antenna, OmniAntenna, SectorAntenna
from repro.phy.propagation import (
    FILL_BATCHED,
    FILL_SCALAR,
    CompositeChannel,
    FreeSpacePathLoss,
    GainMatrixCache,
    LogDistancePathLoss,
    LogNormalShadowing,
    PathLossModel,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import AccessPointSite, ClientSite, Topology

# ---------------------------------------------------------------------------
# Sample registries.  The completeness tests below assert that every
# concrete subclass appears here, so adding a model without extending the
# identity suite is a test failure, not a silent scalar fallback.

PATH_LOSS_SAMPLES = {
    FreeSpacePathLoss: FreeSpacePathLoss(617e6),
    LogDistancePathLoss: LogDistancePathLoss(617e6, exponent=3.7, reference_m=10.0),
    UrbanHataPathLoss: UrbanHataPathLoss(),
}

ANTENNA_SAMPLES = {
    OmniAntenna: OmniAntenna(gain_dbi=3.0),
    SectorAntenna: SectorAntenna(
        peak_gain_dbi=7.0, boresight_deg=-120.0, beamwidth_deg=120.0
    ),
}

#: Distances that exercise every branch: zero (clamped), subnormal,
#: the exact 1 m clamp boundary and its neighbours, the log-distance
#: 10 m reference boundary, the Hata 10 m near-field floor, and far field.
EDGE_DISTANCES = [
    0.0,
    5e-324,
    1.0 - 2**-53,
    1.0,
    1.0 + 2**-52,
    9.999999999,
    10.0,
    10.000000001,
    1234.567,
    2.5e4,
]

distance_lists = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
        st.sampled_from(EDGE_DISTANCES),
    ),
    min_size=1,
    max_size=64,
)

coordinate = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


def _concrete_subclasses(base):
    found = set()
    stack = list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if not getattr(cls, "__abstractmethods__", None):
            found.add(cls)
    return found


# ---------------------------------------------------------------------------
# Vector-math layer


class TestVecMath:
    def test_probed_unaries_equal_scalar(self):
        rng = np.random.default_rng(7)
        x = np.concatenate(
            [
                rng.uniform(1e-12, 1.0, 997),  # u1 domain
                rng.uniform(1.0, 1e6, 997),  # distance/ratio domain
                np.array([1.0, 0.5, 2.0, 1.0 - 2**-53]),
            ]
        )
        assert list(vecmath.vec_log10(x)) == [math.log10(v) for v in x.tolist()]
        assert list(vecmath.vec_log(x)) == [math.log(v) for v in x.tolist()]
        angles = rng.uniform(0.0, 2.0 * math.pi, 2000)
        assert list(vecmath.vec_cos(angles)) == [
            math.cos(v) for v in angles.tolist()
        ]

    def test_bearing_equals_scalar(self):
        rng = np.random.default_rng(11)
        dy = rng.uniform(-1e4, 1e4, 1500)
        dx = rng.uniform(-1e4, 1e4, 1500)
        dy[:4] = [0.0, -0.0, 0.0, 1.0]
        dx[:4] = [0.0, 0.0, -1.0, 0.0]
        assert list(vecmath.vec_bearing_deg(dy, dx)) == [
            math.degrees(math.atan2(a, b)) for a, b in zip(dy.tolist(), dx.tolist())
        ]

    def test_hypot_equals_scalar_adversarial(self):
        rng = np.random.default_rng(13)
        specials = [
            (0.0, 0.0),
            (-0.0, 0.0),
            (3.0, 4.0),
            (5e-324, 0.0),
            (5e-324, 5e-324),
            (1e-300, 5.0),  # extreme ratio: Dekker error term underflows
            (1e308, 1e308),  # overflow without scaling
            (2.2e-308, 3.1e-308),  # subnormal-boundary maxima
            (float("inf"), 1.0),
            (float("nan"), 1.0),
            (float("inf"), float("nan")),
        ]
        dx = np.concatenate(
            [rng.uniform(-1e5, 1e5, 4000), np.array([a for a, _ in specials])]
        )
        dy = np.concatenate(
            [rng.uniform(-1e5, 1e5, 4000), np.array([b for _, b in specials])]
        )
        got = vecmath.vec_hypot(dx, dy)
        for g, a, b in zip(got.tolist(), dx.tolist(), dy.tolist()):
            want = math.hypot(a, b)
            assert g == want or (math.isnan(g) and math.isnan(want))

    def test_report_shape(self):
        report = vecmath.vectorized_report()
        assert set(report) == {
            "hypot", "log10", "log", "cos", "pow10", "bearing_deg"
        }
        assert all(isinstance(v, bool) for v in report.values())


# ---------------------------------------------------------------------------
# Path-loss models


class TestPathLossBatchIdentity:
    @pytest.mark.parametrize(
        "model", PATH_LOSS_SAMPLES.values(), ids=lambda m: type(m).__name__
    )
    @given(distances=distance_lists)
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar(self, model, distances):
        batch = model.path_loss_db_batch(np.array(distances))
        assert batch.dtype == np.float64
        assert list(batch) == [model.path_loss_db(d) for d in distances]

    @pytest.mark.parametrize(
        "model", PATH_LOSS_SAMPLES.values(), ids=lambda m: type(m).__name__
    )
    def test_edge_distances(self, model):
        batch = model.path_loss_db_batch(np.array(EDGE_DISTANCES))
        assert list(batch) == [model.path_loss_db(d) for d in EDGE_DISTANCES]

    @pytest.mark.parametrize(
        "model", PATH_LOSS_SAMPLES.values(), ids=lambda m: type(m).__name__
    )
    def test_negative_distance_raises_in_both_paths(self, model):
        with pytest.raises(ValueError):
            model.path_loss_db(-1.0)
        with pytest.raises(ValueError):
            model.path_loss_db_batch(np.array([1.0, -1.0, 2.0]))

    def test_batch_preserves_shape(self):
        model = PATH_LOSS_SAMPLES[UrbanHataPathLoss]
        d = np.linspace(0.0, 3000.0, 12).reshape(3, 4)
        batch = model.path_loss_db_batch(d)
        assert batch.shape == (3, 4)
        flat = model.path_loss_db_batch(d.ravel())
        assert np.array_equal(batch.ravel(), flat)


class TestRegistryCompleteness:
    def test_every_concrete_model_is_sampled(self):
        concrete = _concrete_subclasses(PathLossModel)
        assert concrete == set(PATH_LOSS_SAMPLES), (
            "every concrete PathLossModel needs a sample instance in "
            "PATH_LOSS_SAMPLES so the bit-identity suite covers it"
        )

    def test_every_concrete_model_overrides_batch(self):
        for cls in _concrete_subclasses(PathLossModel):
            assert "path_loss_db_batch" in cls.__dict__, (
                f"{cls.__name__} must implement path_loss_db_batch itself "
                "(no silent scalar fallback)"
            )

    def test_every_concrete_antenna_is_sampled(self):
        concrete = _concrete_subclasses(Antenna)
        assert concrete == set(ANTENNA_SAMPLES), (
            "every concrete Antenna needs a sample instance in "
            "ANTENNA_SAMPLES so the gains_towards identity suite covers it"
        )

    def test_known_antennas_override_batched_gains(self):
        # The base-class loop is identical by construction; the two
        # shipped patterns both override it and must stay pinned.
        for cls in (OmniAntenna, SectorAntenna):
            assert "gains_towards" in cls.__dict__


# ---------------------------------------------------------------------------
# Shadowing


class TestShadowingBatchIdentity:
    @given(
        sigma=st.sampled_from([0.0, 3.0, 7.0]),
        seed=st.integers(min_value=0, max_value=2**31),
        links=st.lists(
            st.tuples(coordinate, coordinate, coordinate, coordinate),
            min_size=1,
            max_size=32,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar(self, sigma, seed, links):
        sh = LogNormalShadowing(sigma_db=sigma, seed=seed)
        ax, ay, bx, by = (np.array(v) for v in zip(*links))
        batch = sh.shadowing_db_batch(ax, ay, bx, by)
        assert list(batch) == [sh.shadowing_db(*link) for link in links]

    @given(
        links=st.lists(
            st.tuples(coordinate, coordinate, coordinate, coordinate),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_swap_symmetry(self, links):
        sh = LogNormalShadowing(sigma_db=7.0, seed=2017)
        ax, ay, bx, by = (np.array(v) for v in zip(*links))
        assert np.array_equal(
            sh.shadowing_db_batch(ax, ay, bx, by),
            sh.shadowing_db_batch(bx, by, ax, ay),
        )

    def test_same_point_and_negative_zero(self):
        sh = LogNormalShadowing(sigma_db=7.0, seed=2017)
        links = [
            (3.0, 4.0, 3.0, 4.0),  # zero-distance link
            (0.0, 0.0, 0.0, 0.0),
            (-0.0, 0.0, 0.0, 0.0),  # -0.0 formats as "-0.0": distinct key
            (0.0, -0.0, 0.0, 0.0),
        ]
        ax, ay, bx, by = (np.array(v) for v in zip(*links))
        batch = sh.shadowing_db_batch(ax, ay, bx, by)
        assert list(batch) == [sh.shadowing_db(*link) for link in links]

    def test_sigma_zero_is_exact_zero(self):
        sh = LogNormalShadowing(sigma_db=0.0, seed=5)
        batch = sh.shadowing_db_batch(
            np.array([1.0, 2.0]), np.array([0.0, 0.0]),
            np.array([3.0, 4.0]), np.array([0.0, 0.0]),
        )
        assert list(batch) == [0.0, 0.0]
        assert sh.shadowing_db(1.0, 0.0, 3.0, 0.0) == 0.0


class TestKeyQuantizationContract:
    """The ``:.1f`` key grid is pinned, golden-digest-bearing behaviour."""

    SH = LogNormalShadowing(sigma_db=7.0, seed=2017)
    #: Golden values: regenerate ONLY on a deliberate, digest-breaking
    #: key-format change (and say so loudly in the changelog).
    GOLDEN_SHARED = 0.04565141539307107
    GOLDEN_NEXT_CELL = -4.3623881085026985

    def test_links_within_a_cell_share_a_draw(self):
        # 12.31 and 12.33 both format to "12.3"; 5.0 and 5.04 to "5.0".
        a = self.SH.shadowing_db(12.31, 5.0, 100.0, 50.0)
        b = self.SH.shadowing_db(12.33, 5.04, 100.0, 50.0)
        assert a == b == self.GOLDEN_SHARED

    def test_cell_edge_redraws(self):
        # 12.37 formats to "12.4": one grid step, a fresh draw.
        assert self.SH.shadowing_db(12.37, 5.0, 100.0, 50.0) == self.GOLDEN_NEXT_CELL

    def test_reciprocity_golden(self):
        assert self.SH.shadowing_db(100.0, 50.0, 12.31, 5.0) == self.GOLDEN_SHARED

    def test_endpoint_tag_bytes(self):
        assert LogNormalShadowing.endpoint_tag(12.31, 5.04) == b"12.3,5.0"
        assert LogNormalShadowing.endpoint_tag(-0.04, 0.0) == b"-0.0,0.0"
        # Round-half-even at the cell edge (.1f uses banker's rounding on
        # the underlying binary value).
        assert LogNormalShadowing.endpoint_tag(12.25, 12.35) == b"12.2,12.3"

    def test_batch_reproduces_goldens(self):
        batch = self.SH.shadowing_db_batch(
            np.array([12.31, 12.33, 12.37]),
            np.array([5.0, 5.04, 5.0]),
            np.array([100.0, 100.0, 100.0]),
            np.array([50.0, 50.0, 50.0]),
        )
        assert list(batch) == [
            self.GOLDEN_SHARED,
            self.GOLDEN_SHARED,
            self.GOLDEN_NEXT_CELL,
        ]


# ---------------------------------------------------------------------------
# Antennas


class TestAntennaBatchIdentity:
    @pytest.mark.parametrize(
        "antenna", ANTENNA_SAMPLES.values(), ids=lambda a: type(a).__name__
    )
    @given(
        origin=st.tuples(coordinate, coordinate),
        points=st.lists(
            st.tuples(coordinate, coordinate), min_size=1, max_size=32
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_gains_towards_equals_scalar(self, antenna, origin, points):
        fx, fy = origin
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        batch = antenna.gains_towards(fx, fy, xs, ys)
        assert list(batch) == [
            antenna.gain_towards(fx, fy, x, y) for x, y in points
        ]

    def test_sector_wrap_branches(self):
        # Bearings that land exactly on the wrap boundaries and the
        # front/back clip, for a few boresights including negative ones.
        for boresight in (-120.0, 0.0, 90.0, 359.0):
            antenna = SectorAntenna(boresight_deg=boresight)
            xs, ys = [], []
            for deg in (-180.0, -179.9, -60.0, 0.0, 59.9, 60.0, 180.0, 300.0):
                rad = math.radians(boresight + deg)
                xs.append(1000.0 * math.cos(rad))
                ys.append(1000.0 * math.sin(rad))
            batch = antenna.gains_towards(0.0, 0.0, np.array(xs), np.array(ys))
            assert list(batch) == [
                antenna.gain_towards(0.0, 0.0, x, y) for x, y in zip(xs, ys)
            ]


# ---------------------------------------------------------------------------
# Gain-matrix cache


def _toy_topology(n_aps=7, clients_per_ap=5, area_m=1500.0):
    rng = np.random.default_rng(2017)
    aps, clients = [], []
    for ap_id in range(n_aps):
        x, y = rng.uniform(0.0, area_m, 2)
        aps.append(AccessPointSite(ap_id=ap_id, x=float(x), y=float(y)))
        for k in range(clients_per_ap):
            cx, cy = rng.uniform(0.0, area_m, 2)
            clients.append(
                ClientSite(
                    client_id=ap_id * clients_per_ap + k,
                    x=float(cx),
                    y=float(cy),
                    ap_id=ap_id,
                )
            )
    return Topology(aps=aps, clients=clients, area_m=area_m)


def _build_cache(fill_mode, topology, shadowing=True, antennas=True, cull=135.0):
    channel = CompositeChannel(
        UrbanHataPathLoss(),
        LogNormalShadowing(sigma_db=7.0, seed=2017) if shadowing else None,
    )
    ap_antennas = (
        {
            ap.ap_id: SectorAntenna(boresight_deg=float((37 * ap.ap_id) % 360))
            for ap in topology.aps
        }
        if antennas
        else None
    )
    return GainMatrixCache(
        channel,
        topology.aps,
        topology.clients,
        ap_antennas=ap_antennas,
        cull_loss_db=cull,
        fill_mode=fill_mode,
    )


class TestGainMatrixCacheBatchIdentity:
    @pytest.mark.parametrize("shadowing", [True, False])
    @pytest.mark.parametrize("antennas", [True, False])
    def test_matrix_identical(self, shadowing, antennas):
        topology = _toy_topology()
        batched = _build_cache(FILL_BATCHED, topology, shadowing, antennas)
        scalar = _build_cache(FILL_SCALAR, topology, shadowing, antennas)
        assert np.array_equal(batched.matrix(), scalar.matrix())

    def test_multi_chunk_fill_identical(self):
        # 40 APs x 450 clients = 18000 links > _CHUNK_LINKS: the batched
        # fill must split into multiple chunks and still match exactly.
        topology = _toy_topology(n_aps=40, clients_per_ap=12, area_m=4000.0)
        batched = _build_cache(FILL_BATCHED, topology, antennas=False)
        scalar = _build_cache(FILL_SCALAR, topology, antennas=False)
        assert np.array_equal(batched.matrix(), scalar.matrix())

    def test_lazy_row_paths_identical(self):
        topology = _toy_topology()
        batched = _build_cache(FILL_BATCHED, topology)
        scalar = _build_cache(FILL_SCALAR, topology)
        cid = topology.clients[3].client_id
        ap_id = topology.aps[2].ap_id
        assert batched.loss_db(cid, ap_id) == scalar.loss_db(cid, ap_id)
        some = [c.client_id for c in topology.clients[::3]]
        assert np.array_equal(batched.rows(some), scalar.rows(some))

    def test_prefill_subset_then_matrix(self):
        topology = _toy_topology()
        batched = _build_cache(FILL_BATCHED, topology)
        scalar = _build_cache(FILL_SCALAR, topology)
        batched.prefill([c.client_id for c in topology.clients[:8]])
        scalar.prefill([c.client_id for c in topology.clients[:8]])
        assert np.array_equal(batched.matrix(), scalar.matrix())

    def test_invalidate_refill_identical(self):
        topology = _toy_topology()
        batched = _build_cache(FILL_BATCHED, topology)
        scalar = _build_cache(FILL_SCALAR, topology)
        batched.matrix(), scalar.matrix()
        moved = topology.clients[4].client_id
        batched.invalidate_client(moved)
        scalar.invalidate_client(moved)
        assert np.array_equal(batched.matrix(), scalar.matrix())

    def test_invalid_fill_mode_rejected(self):
        topology = _toy_topology(n_aps=1, clients_per_ap=1)
        with pytest.raises(ValueError):
            _build_cache("simd", topology)

    def test_cull_boundary_is_strict(self):
        # Culling compares with strict ">": a link whose loss EQUALS the
        # horizon stays live; one ulp below the loss, it is culled.  The
        # batched fill must not perturb the stored loss (shared golden
        # digests depend on the boundary landing identically).
        topology = _toy_topology()
        cache = _build_cache(FILL_BATCHED, topology, cull=None)
        cid = topology.clients[0].client_id
        ap_id = topology.aps[0].ap_id
        loss = cache.loss_db(cid, ap_id)
        at = _build_cache(FILL_BATCHED, topology, cull=loss)
        assert at.loss_db(cid, ap_id) == loss
        assert not at.is_culled(cid, ap_id)
        below = _build_cache(
            FILL_BATCHED, topology, cull=float(np.nextafter(loss, -np.inf))
        )
        assert below.is_culled(cid, ap_id)


class TestSimulatorGainFill:
    def test_network_builds_identical_link_tables(self):
        topology = _toy_topology(n_aps=5, clients_per_ap=4)

        def build(gain_fill):
            return LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=CompositeChannel(
                    UrbanHataPathLoss(),
                    LogNormalShadowing(sigma_db=7.0, seed=2017),
                ),
                rngs=RngStreams(2017),
                cull_loss_db=135.0,
                gain_fill=gain_fill,
            )

        batched = build(FILL_BATCHED)
        scalar = build(FILL_SCALAR)
        assert batched.gain_prefill_s >= 0.0
        assert np.array_equal(batched._rx_dbm_mat, scalar._rx_dbm_mat)
        assert np.array_equal(batched._rx_w_mat, scalar._rx_w_mat)
        assert np.array_equal(batched._prach_mat, scalar._prach_mat)
        assert np.array_equal(
            batched.gain_cache.matrix(), scalar.gain_cache.matrix()
        )

    def test_epoch_results_identical(self):
        topology = _toy_topology(n_aps=4, clients_per_ap=3)

        def run(gain_fill):
            net = LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=CompositeChannel(
                    UrbanHataPathLoss(),
                    LogNormalShadowing(sigma_db=7.0, seed=2017),
                ),
                rngs=RngStreams(2017),
                cull_loss_db=135.0,
                gain_fill=gain_fill,
            )
            allowed = {
                ap.ap_id: set(range(net.grid.n_subchannels))
                for ap in topology.aps
            }
            demands = {c.client_id: float("inf") for c in topology.clients}
            result = net.run_epoch(0, allowed, demands)
            return sorted(result.served_bits.items())

        assert run(FILL_BATCHED) == run(FILL_SCALAR)

    def test_invalid_gain_fill_rejected(self):
        topology = _toy_topology(n_aps=1, clients_per_ap=1)
        with pytest.raises(ValueError):
            LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=CompositeChannel(UrbanHataPathLoss()),
                rngs=RngStreams(1),
                gain_fill="simd",
            )
