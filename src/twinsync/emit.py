"""Turns a descriptor into twin-side deployment documents.

One slice-config trio (session management, slice selection, access
management) plus a four-host topology. Each document is a plain tree
(mappings, sequences, scalars only); the trio is written as YAML 1.1 with
no anchors or tags, the topology as JSON. The emitter is deterministic and
keeps slice order, which is what the state-consistency audit relies on.
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .model import TwinDescriptor

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
class DeploymentBundle:
    smf_doc: dict
    nssf_doc: dict
    amf_doc: dict
    topology_doc: dict


def emit_bundle(d: TwinDescriptor) -> DeploymentBundle:
    """Build the deployment documents for a descriptor.

    Session entries keep the descriptor's slice order; slice-selection
    entries get sequential SST values starting at 1. The topology joins
    every host to the one switch by a link shaped by the descriptor's
    link profile.
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
    topology_doc = {
        "hosts": [{"name": name, "role": role} for name, role in _HOSTS],
        "switches": ["s1"],
        "links": [
            {"endpoint_a": name, "endpoint_b": "s1", "profile": asdict(d.link_profile)}
            for name, _ in _HOSTS
        ],
    }
    return DeploymentBundle(smf_doc, nssf_doc, amf_doc, topology_doc)


def render_bundle(bundle: DeploymentBundle, directory: Path) -> list[Path]:
    """Write the bundle into a directory; returns the written paths."""
    import yaml  # only writing needs it, so `twinsync ingest` does not load it

    directory = Path(directory)
    written = []
    for name, doc in ((SMF_FILE, bundle.smf_doc), (NSSF_FILE, bundle.nssf_doc), (AMF_FILE, bundle.amf_doc)):
        path = directory / name
        path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=False), encoding="utf-8")
        written.append(path)
    topo_path = directory / TOPOLOGY_FILE
    topo_path.write_text(json.dumps(bundle.topology_doc, indent=2) + "\n", encoding="utf-8")
    written.append(topo_path)
    return written
