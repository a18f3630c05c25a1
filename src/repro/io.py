"""Artifact files: write and read one JSON document.

Artifacts are encoded by :mod:`repro.codec`; this module only puts the
encoding on disk (keys sorted, two-space indent) and reads it back, so
runs can be archived, diffed across seeds and loaded into notebooks
without re-running multi-minute pipelines.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union

PathLike = Union[str, pathlib.Path]


def save_json(data: Dict[str, Any], path: PathLike) -> None:
    """Write a serialised artifact to ``path``."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a serialised artifact from ``path``."""
    return json.loads(pathlib.Path(path).read_text())
