"""Turns a descriptor into twin-side deployment documents.

One slice-config trio (session management, slice selection, access
management) plus a four-host topology blueprint. Documents are plain
YAML 1.1 trees (mappings, sequences, scalars only, no anchors or tags);
the topology goes out as JSON. The emitter is deterministic and keeps
slice order, which is what the state-consistency audit relies on.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .model import LinkProfile, TwinDescriptor

_HOSTS = (
    ("ran", "ran"),
    ("mec", "mec"),
    ("upf-cloud", "cloud-upf"),
    ("cp-cloud", "cloud-cp"),
)

SMF_FILE = "smf.yaml"
NSSF_FILE = "nssf.yaml"
AMF_FILE = "amf.yaml"
TOPOLOGY_FILE = "topology.json"


@dataclass(frozen=True, slots=True)
class TopologyHost:
    name: str
    role: str


@dataclass(frozen=True, slots=True)
class TopologyLink:
    endpoint_a: str
    endpoint_b: str
    profile: LinkProfile


@dataclass(frozen=True, slots=True)
class TopologyBlueprint:
    hosts: tuple[TopologyHost, ...]
    switches: tuple[str, ...]
    links: tuple[TopologyLink, ...]


@dataclass(frozen=True, slots=True)
class DeploymentBundle:
    smf_doc: dict
    nssf_doc: dict
    amf_doc: dict
    topology: TopologyBlueprint


def emit_bundle(d: TwinDescriptor) -> DeploymentBundle:
    """Build the deployment documents for a descriptor.

    Session entries keep the descriptor's slice order; slice-selection
    entries get sequential SST values starting at 1.
    """
    smf_doc = {
        "smf": {
            "sessions": [
                {
                    "dnn": s.dnn,
                    "subnet": s.subnet,
                    "gateway": s.gateway_ip,
                    "dl_bandwidth_bps": s.dl_bandwidth_bps,
                    "ul_bandwidth_bps": s.ul_bandwidth_bps,
                    "qos_index": s.qci,
                }
                for s in d.slices
            ]
        }
    }
    nssf_doc = {
        "nssf": {
            "slices": [{"dnn": s.dnn, "sst": i + 1} for i, s in enumerate(d.slices)]
        }
    }
    amf_doc = {
        "amf": {
            "plmn": d.plmn,
            "network_name": d.network_name,
            "ue_count": d.ue_count,
        }
    }
    hosts = tuple(TopologyHost(name, role) for name, role in _HOSTS)
    links = tuple(TopologyLink(h.name, "s1", d.link_profile) for h in hosts)
    topology = TopologyBlueprint(hosts=hosts, switches=("s1",), links=links)
    return DeploymentBundle(smf_doc, nssf_doc, amf_doc, topology)


def _topology_to_tree(t: TopologyBlueprint) -> dict:
    return {
        "hosts": [{"name": h.name, "role": h.role} for h in t.hosts],
        "switches": list(t.switches),
        "links": [
            {
                "endpoint_a": l.endpoint_a,
                "endpoint_b": l.endpoint_b,
                "profile": {
                    "bandwidth_bps": l.profile.bandwidth_bps,
                    "latency_us": l.profile.latency_us,
                    "jitter_us": l.profile.jitter_us,
                },
            }
            for l in t.links
        ],
    }


def render_bundle(bundle: DeploymentBundle, directory: Path) -> list[Path]:
    """Write the bundle into a directory; returns the written paths."""
    directory = Path(directory)
    written = []
    for name, doc in ((SMF_FILE, bundle.smf_doc), (NSSF_FILE, bundle.nssf_doc), (AMF_FILE, bundle.amf_doc)):
        path = directory / name
        path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=False), encoding="utf-8")
        written.append(path)
    topo_path = directory / TOPOLOGY_FILE
    topo_path.write_text(json.dumps(_topology_to_tree(bundle.topology), indent=2) + "\n", encoding="utf-8")
    written.append(topo_path)
    return written
