"""Named fixtures and JSON loaders for instruments and boxes.

Fixture names resolve to built-in objects ("z-instrument", "x-instrument",
"pr-box") or to packaged JSON files ("mutant-instrument",
"signaling-box", used to prove the verifiers are not vacuous).  Anything
else is treated as a filesystem path.  A path that is not a readable regular
file raises ``FileNotFoundError``.  A file that does not parse as JSON, or
parses but lacks the expected structure, raises ``ValueError``, like one with
invalid entries.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .boxes import Box
from .linalg import matrix_from_json, matrix_to_json
from .quantum import Instrument, KrausOp, x_instrument, z_instrument


def instrument_to_json(inst: Instrument) -> list:
    """One list per outcome, each holding that outcome's Kraus matrices."""
    return [[matrix_to_json(k) for k in op.kraus] for op in inst.outcomes]


def instrument_from_json(obj) -> Instrument:
    """Build and validate an instrument; incomplete ones raise."""
    return Instrument([KrausOp([matrix_from_json(k) for k in outcome]) for outcome in obj])


def _data_text(name: str) -> str:
    return resources.files("optheory").joinpath("data", name).read_text()


def _read_json(source: str):
    """The JSON value of the file at ``source``.  A path that is not a
    readable regular file raises ``FileNotFoundError``, a usage error; a
    file that is not JSON, or nests too deeply to parse, ``ValueError``."""
    path = Path(source)
    try:
        text = path.read_text() if path.is_file() else None
    except OSError:  # unreadable, or a name too long for the file system
        text = None
    if text is None:
        raise FileNotFoundError(f"fixture is not a readable file: {source}")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed fixture {source}: JSON nested too deeply") from None


def _parse(build, source: str):
    """``build`` applied to the JSON file at ``source``; a missing key, wrong
    type, short list or out-of-range integer in it raises ``ValueError``."""
    obj = _read_json(source)
    try:
        return build(obj)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed fixture {source}: {type(exc).__name__} {exc}") from exc


def load_instrument(name_or_path: str) -> Instrument:
    if name_or_path == "z-instrument":
        return z_instrument()
    if name_or_path == "x-instrument":
        return x_instrument()
    if name_or_path == "mutant-instrument":
        return instrument_from_json(json.loads(_data_text("mutant_instrument.json")))
    return _parse(instrument_from_json, name_or_path)


def load_box(name_or_path: str) -> Box:
    if name_or_path == "signaling-box":
        return Box.from_json(json.loads(_data_text("signaling_box.json")))
    if name_or_path == "pr-box":
        from .boxes import pr_box

        return pr_box()
    return _parse(Box.from_json, name_or_path)
