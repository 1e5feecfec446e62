"""Byte identity of replies, the WAL and the checkpoint.

Runs the work-counter phases of ``tools/work_counters.py`` (the benchmark
program on the smoke dataset, one durable store) and compares sha256
digests with the committed ones below:

* each read phase's reply line, ``protocol.encode(rows_payload(result))``,
  with the stats' wall-clock ``elapsed_ms`` zeroed;
* ``wal.log`` after the ``facts`` batch and after the Glue ``+=`` call;
* ``checkpoint.gnd`` after the checkpoint.

A change to term representation, lowering or persistence must leave every
byte as it was.  Print the digests of the current code with::

    PYTHONPATH=src python tests/integration/test_wire_bytes.py
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.server import protocol

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "work_counters", ROOT / "tools" / "work_counters.py"
)
work_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counters)

READS = ("reach", "venue_report", "coauthor", "uncited", "magic_0", "magic_1", "magic_2")
FILES = {"facts_250": "wal.log", "glue_insert_call": "wal.log", "checkpoint": "checkpoint.gnd"}

DIGESTS = {
    "checkpoint": "d564bd95b88f4ec75d14357b890c932af184516ec4e228dc1c3d79b0fc04f9cb",
    "coauthor": "980153619320114e4b43dab3375c09e3dc7b251add36246c16872085f0cca7c1",
    "facts_250": "0992bd6230969f7183035f291ccb1dc72a85a5a135d263322942a184eed75031",
    "glue_insert_call": "103f9a4c0bf16e213988f0f7165e114c85121cc5a20d31772232483636eabf97",
    "magic_0": "6633bf156d899853839e30961beb53227c03ee0faab1e4d6425dc84f8d5b15d7",
    "magic_1": "33bf839a5a6c78f66518466792ed5bb9931be174d84e489f7740bc46ae9d21e3",
    "magic_2": "8b751d6dcf5c56b0ed3f0ee6905724b5337c1279822d7f7a2d009ecd7c65e7c7",
    "reach": "b1d692e967c446c1b431ab0d9d84d34de4428f02f8f96aace0968ff4e1f9b8b6",
    "uncited": "b4558c09cb77edd91e0ca61162f571df6e43863b0a29ea7a489508722cb4b785",
    "venue_report": "e99ec64d0993e32db323cffddd0c2d0808837edc1905d423ab65f01cc6dc5e1d",
}


def current_digests() -> dict:
    digests = {}

    def observe(phase, result, directory):
        if phase in READS:
            payload = protocol.rows_payload(result)
            payload["stats"]["elapsed_ms"] = 0
            data = protocol.encode(payload).encode("utf-8")
        elif phase in FILES:
            data = (directory / FILES[phase]).read_bytes()
        else:
            return
        digests[phase] = hashlib.sha256(data).hexdigest()

    work_counters.run_phases(observe)
    return digests


def test_replies_wal_and_checkpoint_bytes_are_unchanged():
    assert current_digests() == DIGESTS


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=4, sort_keys=True))
