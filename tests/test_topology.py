"""Topology loading: schema strictness, validation, naming."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ENTITY_ID_CLASHES, incident_links, mesh4, mesh4_dict
from qkdrelay.topology import (
    ROLE_SIMPLE,
    ROLE_TRUSTED_RELAY,
    ParseError,
    SimConfig,
    ValidationError,
    load_topology,
    node_label,
    render_kms_id,
    topology_from_dict,
    vkms_name,
)


def test_mesh4_kms_ids_regenerate():
    topo = mesh4()
    all_kms = {render_kms_id(end, l.id) for l in topo.links.values() for end in l.endpoints()}
    assert {"KMS_1b", "KMS_3b", "KMS_3d", "KMS_4d"} <= all_kms
    assert len(all_kms) == 8  # 4 links x 2 endpoints
    assert set(topo.kms_ids.values()) == all_kms


def test_mesh4_roles():
    topo = mesh4()
    assert topo.nodes["N4"] == ROLE_SIMPLE
    for node_id in ("N1", "N2", "N3"):
        assert topo.nodes[node_id] == ROLE_TRUSTED_RELAY


def test_single_link_both_simple():
    topo = topology_from_dict(
        {
            "nodes": [{"id": "N1"}, {"id": "N2"}],
            "links": [
                {"id": "x", "a": "N1", "b": "N2", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0}
            ],
            "apps": [],
            "weight_policy": "distance",
        }
    )
    assert topo.nodes == {"N1": ROLE_SIMPLE, "N2": ROLE_SIMPLE}


def test_dangling_link_endpoint_rejected():
    raw = mesh4_dict()
    raw["links"][0]["b"] = "N9"
    with pytest.raises(ValidationError) as exc:
        topology_from_dict(raw)
    assert any("N9" in v for v in exc.value.violations)


def test_disconnected_graph_rejected():
    raw = {
        "nodes": [{"id": "N1"}, {"id": "N2"}, {"id": "N3"}, {"id": "N4"}],
        "links": [
            {"id": "x", "a": "N1", "b": "N2", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
            {"id": "y", "a": "N3", "b": "N4", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
        ],
        "apps": [],
        "weight_policy": "hop_count",
    }
    with pytest.raises(ValidationError, match="disconnected"):
        topology_from_dict(raw)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r["links"].append(dict(r["links"][0])), "duplicate link"),
        (lambda r: r["nodes"].append({"id": "N1"}), "duplicate node"),
        (lambda r: r["links"][0].update(key_rate=0), "key_rate"),
        (lambda r: r["links"][0].update(distance_km=-1), "distance_km"),
        (lambda r: r["links"][0].update(initial_pool=-1), "initial_pool"),
        (lambda r: r.update(weight_policy="fastest"), "weight_policy"),
        (lambda r: r["links"][0].update(a="N2", b="N2"), "distinct"),
        (lambda r: r["apps"].append({"id": "APP_Z", "node": "N8"}), "unknown node"),
    ],
)
def test_validation_rejections(mutate, message):
    raw = mesh4_dict()
    mutate(raw)
    with pytest.raises(ValidationError, match=message):
        topology_from_dict(raw)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(extra_key=1),
        lambda r: r["links"][0].update(color="blue"),
        lambda r: r["links"][0].pop("key_rate"),
        lambda r: r["nodes"][0].update(role="simple"),  # roles are derived
        lambda r: r["apps"][0].pop("node"),
        lambda r: r["links"][0].update(key_rate="fast"),
        lambda r: r["links"][0].update(initial_pool=True),
        lambda r: r.update(config={"cache_ttl_ms": 0}),  # no discovery cache
        lambda r: r.update(config={"session_lifetime_ms": -1}),
        lambda r: r.update(config={"delivered_key_ttl_ms": -1}),
    ],
)
def test_schema_strictness(mutate):
    raw = mesh4_dict()
    mutate(raw)
    with pytest.raises(ParseError):
        topology_from_dict(raw)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r["nodes"][0].update(id=""), "node: 'id' must be a non-empty string"),
        (lambda r: r["links"][0].update(id=""), "link: 'id' must be a non-empty string"),
        (lambda r: r["apps"][0].update(node=""), "app: 'node' must be a non-empty string"),
        (lambda r: r["nodes"].append("N5"), "node: expected an object"),
        (lambda r: r["links"].append(["N1", "N4"]), "link: expected an object"),
        (lambda r: r["apps"].append(None), "app: expected an object"),
        (lambda r: r.update(config={"key_size_bytes": 0}),
         "config: 'key_size_bytes' must be positive"),
        (lambda r: r.update(config={"request_timeout_ms": -5}),
         "config: 'request_timeout_ms' must be positive"),
        (lambda r: r.update(nodes={"N1": {}}), "topology: 'nodes' must be an array"),
        (lambda r: r.update(links="a,b,c,d"), "topology: 'links' must be an array"),
        (lambda r: r.update(apps=None), "topology: 'apps' must be an array"),
        (lambda r: r.update(weight_policy=["hop_count"]),
         "topology: 'weight_policy' must be a string"),
        (lambda r: r.update(config={"session_lifetime_ms": -1}),
         "config: 'session_lifetime_ms' must be >= 0"),
        (lambda r: r.update(config={"delivered_key_ttl_ms": 500}),
         "config: unknown key 'delivered_key_ttl_ms'"),
        (lambda r: r.update(config={"cache_ttl_ms": 0}),
         "config: unknown key 'cache_ttl_ms'"),
    ],
)
def test_schema_rejection_messages(mutate, message):
    raw = mesh4_dict()
    mutate(raw)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        topology_from_dict(raw)


def test_duplicate_app_id_rejected():
    raw = mesh4_dict({"APP_A": "N1", "APP_B": "N4"})
    raw["apps"].append({"id": "APP_A", "node": "N2"})
    with pytest.raises(ValidationError, match="duplicate app id 'APP_A'") as exc:
        topology_from_dict(raw)
    assert exc.value.violations == ["duplicate app id 'APP_A'"]


def test_node_without_links_rejected():
    raw = mesh4_dict()
    raw["nodes"].append({"id": "N5"})
    with pytest.raises(ValidationError, match="node 'N5' has no incident links") as exc:
        topology_from_dict(raw)
    # An isolated node also disconnects the graph.
    assert exc.value.violations == [
        "node 'N5' has no incident links",
        "graph is disconnected (unreachable: ['N5'])",
    ]


@pytest.mark.parametrize("text", ["[]", '"mesh4"', "null", "4"])
def test_load_rejects_non_object_top_level(text):
    with pytest.raises(ParseError, match="^topology: top level must be an object$"):
        load_topology(text)


def test_load_rejects_non_json():
    with pytest.raises(ParseError):
        load_topology("not json {")


# json.loads takes NaN, Infinity and -Infinity, and 1e400 overflows to
# infinity; a 400-digit integer is too large for a float.
NON_FINITE_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)


def non_finite_topology_text(key: str, literal: str) -> str:
    raw = mesh4_dict()
    raw["links"][0][key] = "@"
    return json.dumps(raw).replace('"@"', literal)


@pytest.mark.parametrize(
    "literal", NON_FINITE_LITERALS, ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"]
)
@pytest.mark.parametrize("key", ["key_rate", "distance_km"])
def test_load_rejects_non_finite_link_numbers(key, literal):
    with pytest.raises(ParseError, match=f"{key!r} must be a finite number"):
        load_topology(non_finite_topology_text(key, literal))


def test_round_trip_with_config():
    raw = mesh4_dict(config={"request_timeout_ms": 500, "session_lifetime_ms": 9000})
    topo = topology_from_dict(raw)
    assert topo.config.request_timeout_ms == 500
    assert topo.config.session_lifetime_ms == 9000
    assert topo.config.key_size_bytes == 32  # default untouched


# ── naming ──


def test_kms_naming_convention():
    assert render_kms_id("N3", "d") == "KMS_3d"
    assert render_kms_id("hub", "d") == "KMS_hubd"
    assert vkms_name("N3") == "vKMS_3"
    assert node_label("N12") == "12"
    assert node_label("core") == "core"


def test_kms_id_parse_inverts_render():
    # A rendered name leads back to the one seat it was rendered from.
    topo = mesh4()
    seat_of = {name: seat for seat, name in topo.kms_ids.items()}
    for link in topo.links.values():
        for end in link.endpoints():
            name = render_kms_id(end, link.id)
            assert seat_of[name] == (end, link.id)
    assert len(seat_of) == len(topo.kms_ids)
    assert "KMS_9z" not in seat_of


def test_ambiguous_kms_names_rejected():
    # N1 + link "2x" renders like N12 + link "x": KMS_12x both ways.
    raw = {
        "nodes": [{"id": "N1"}, {"id": "N12"}, {"id": "N3"}],
        "links": [
            {"id": "2x", "a": "N1", "b": "N3", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
            {"id": "x", "a": "N12", "b": "N3", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
        ],
        "apps": [],
        "weight_policy": "hop_count",
    }
    with pytest.raises(ValidationError, match="ambiguous"):
        topology_from_dict(raw)


def test_entity_ids_are_named_once():
    topo = mesh4()
    for link in topo.links.values():
        for end in link.endpoints():
            assert topo.kms_ids[end, link.id] == render_kms_id(end, link.id)
    # Each KMS name belongs to one seat: the name alone identifies it.
    assert len(set(topo.kms_ids.values())) == len(topo.kms_ids)
    assert topo.vkms_ids == {node_id: vkms_name(node_id) for node_id in topo.nodes}


@pytest.mark.parametrize("name", sorted(ENTITY_ID_CLASHES))
def test_shared_entity_ids_rejected(name):
    raw, violations = ENTITY_ID_CLASHES[name]
    with pytest.raises(ValidationError) as exc:
        topology_from_dict(raw)
    assert exc.value.violations == violations


# ── role derivation over random connected graphs ──


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    node_ids = [f"N{i}" for i in range(1, n + 1)]
    links = []
    # Random spanning tree first, extra edges after: connected by construction.
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        links.append((node_ids[j], node_ids[i]))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.sampled_from(node_ids))
        v = draw(st.sampled_from(node_ids))
        if u != v and (u, v) not in links and (v, u) not in links:
            links.append((u, v))
    return node_ids, links


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_role_is_simple_iff_single_link(graph):
    node_ids, links = graph
    raw = {
        "nodes": [{"id": n} for n in node_ids],
        "links": [
            {"id": f"e{i}", "a": u, "b": v, "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0}
            for i, (u, v) in enumerate(links)
        ],
        "apps": [],
        "weight_policy": "hop_count",
    }
    topo = topology_from_dict(raw)
    assert list(topo.nodes) == node_ids
    for node_id, role in topo.nodes.items():
        degree = len(incident_links(topo, node_id))
        assert (role == ROLE_SIMPLE) == (degree == 1)
        assert role in (ROLE_SIMPLE, ROLE_TRUSTED_RELAY)
        assert sum(node == node_id for node, _ in topo.kms_ids) == degree


def test_sim_config_defaults():
    cfg = SimConfig()
    assert cfg.key_size_bytes == 32
    assert cfg.request_timeout_ms == 1000
    assert cfg.session_lifetime_ms is None
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "key_size_bytes", "request_timeout_ms", "session_lifetime_ms",
    ]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimConfig(key_size_bytes=0), "'key_size_bytes' must be positive"),
        (lambda: dataclasses.replace(SimConfig(), request_timeout_ms=0),
         "'request_timeout_ms' must be positive"),
        (lambda: SimConfig(session_lifetime_ms=-1), "'session_lifetime_ms' must be >= 0"),
    ],
)
def test_sim_config_checks_ranges_however_built(build, message):
    """A config built in Python is checked as the loader's is."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_sim_config_has_no_cache_ttl():
    with pytest.raises(TypeError, match="cache_ttl_ms"):
        SimConfig(cache_ttl_ms=0)


def test_sim_config_lapse_rule():
    assert not SimConfig().lapsed(0, 10**9)  # no lifetime: nothing lapses
    config = SimConfig(session_lifetime_ms=100)
    assert not config.lapsed(50, 150)
    assert config.lapsed(50, 151)
